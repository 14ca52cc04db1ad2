// Package serve exposes LCAs over HTTP: the deployment shape the model
// implies. A server holds nothing but probe-source handles and the seed;
// each request builds a fresh LCA instance (they are cheap and answer
// consistently for a fixed seed), so requests are embarrassingly parallel
// and horizontally scalable — different replicas with the same seed serve
// slices of the same global solution. Sources need not be in memory: the
// server answers point queries against implicit generators and cold
// disk-backed CSR files at vertex counts far beyond RAM.
//
// Routing is registry-generic: one handler answers the three point-query
// kinds, dispatching by algorithm name through internal/registry, whose
// kind table gives each kind's coordinates, answer and root span.
// Registering a new algorithm makes it appear on /algos and become
// queryable with no edits here.
//
//	GET  /healthz
//	GET  /metrics[?format=text]
//	GET  /graph[?source=NAME]
//	GET  /algos
//	GET  /sources
//	POST /sources?name=NAME&spec=SPEC
//	GET  /edge/{algo}?u=U&v=V[&source=NAME][&prefetch=1][&param=...]
//	GET  /vertex/{algo}?v=V[&source=NAME][&prefetch=1][&param=...]
//	GET  /label/{algo}?v=V[&source=NAME][&prefetch=1][&param=...]
//	GET  /estimate/{algo}?samples=S[&source=NAME][&prefetch=1][&param=...]
//	GET  /probe?op=OP&a=A[&b=B][&source=NAME]
//	POST /probe[?source=NAME]
//	GET  /probe/meta[?source=NAME]
//	GET  /traces[?slow=1]
//	GET  /traces/{id}
//
// The /probe endpoints speak the probe wire protocol (internal/source,
// wire.go): they answer raw Degree/Neighbor/Adjacency probes (plus the
// seeded op=randomedge extension and batched POST /probe) about any
// named source, so every lcaserve instance doubles as a shard that
// remote: and sharded: sources (and other lcaserve replicas) can probe
// over the network.
//
// prefetch=1 routes the query through the row tier (oracle.NewChain):
// when the selected source is network-backed and batchable (remote:,
// sharded:), each neighborhood the LCA explores becomes one batched
// round trip instead of one per cell. Answers and probe counts are
// identical either way; query answers carry a round_trips field so the
// transport saving is observable per query, and l1_hits for the rows
// the tier served.
//
// POST /sources opens a source by spec string ("ring:n=1000000000",
// "csr:web.csr", ...) and names it; query endpoints select named sources
// with ?source=, defaulting to the source the server was constructed
// with. /graph summarizes n, m and the maximum degree, but refuses with
// 413 to probe O(n) state for summaries the source cannot answer in O(1)
// when n exceeds the configurable cap (WithGraphInfoCap) — the guard that
// keeps a billion-vertex source from being walked by one curious GET.
//
// The serving tier around the query plane (tenant.go, coalesce.go,
// metrics.go):
//
//   - Tenants: WithTenants installs a static token → tenant table; the
//     query plane then requires a token per request (Authorization:
//     Bearer or X-LCA-Token) and enforces per-tenant probe/round-trip
//     budgets (per query, through the oracle budget wrappers) and a
//     sustained-QPS token bucket. Rejections are 429 envelopes; missing
//     or unknown tokens are 401s.
//   - Coalescing: identical in-flight queries share one oracle
//     execution (answers are pure functions of source, kind, params,
//     query and seed), so a hot key is charged once however many
//     requests pile onto it.
//   - Metrics: GET /metrics exports per-kind query counts and latency
//     histograms, probe/round-trip/failover/hedge totals, coalescing
//     and per-tenant counters (see metrics.go for the name table).
//   - Request IDs: every response carries X-Request-ID (client-supplied
//     or generated), and every error envelope embeds it as request_id.
//   - Tracing (tracing.go): ?trace=1 on any query endpoint — or the
//     WithTraceSample head sampler — records a probe-level span tree
//     (query root, oracle exploration, per-round-trip rpc spans with
//     failover/hedge tags, shard-side spans stitched over the
//     X-LCA-Trace header) and attaches it to the answer; WithSlowQuery
//     force-retains threshold violators. GET /traces serves the
//     bounded retention rings.
//
// Every error is a JSON envelope {"error": ..., "status": ...,
// "request_id": ...}; malformed or unknown query parameters are 400s,
// unknown algorithms and kind mismatches are 404s, auth failures 401s,
// admission and budget rejections 429s.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lca/internal/core"
	"lca/internal/estimate"
	"lca/internal/graph"
	"lca/internal/metrics"
	"lca/internal/oracle"
	"lca/internal/registry"
	"lca/internal/rnd"
	"lca/internal/source"
	"lca/internal/trace"

	// Register the built-in algorithm catalog.
	_ "lca/internal/coloring"
	_ "lca/internal/matching"
	_ "lca/internal/mis"
	_ "lca/internal/spanner"
)

// DefaultGraphInfoCap bounds the vertex count up to which /graph will
// probe a source lacking O(1) edge-count/max-degree capabilities.
const DefaultGraphInfoCap = 1 << 22

// Server answers LCA queries about named probe sources under one seed.
// Construct with New or NewFromSource; the zero value is unusable. Safe
// for concurrent use.
type Server struct {
	seed    rnd.Seed
	infoCap int
	mu      sync.RWMutex
	sources map[string]*namedSource
	tenants map[string]*tenantState // token -> tenant; empty = open server
	met     *serverMetrics
	flights flightGroup
	log     *slog.Logger // nil: silent (the library default)

	// The tracing plane (tracing.go): head-based sampler (nil = sample
	// nothing), slow-query thresholds (zero = capture off) and the
	// bounded retention rings behind /traces.
	sampler    *trace.Sampler
	slowDur    time.Duration
	slowProbes uint64
	traces     *trace.Ring

	// audit, when non-nil, is the signed append-only query-audit log
	// (audit.go): every successfully executed query flight appends one
	// HMAC-chained JSON line that lcaverify -replay can re-execute
	// offline.
	audit *auditLog
}

// namedSource is one open source with its provenance.
type namedSource struct {
	name string
	spec string
	src  source.Source
}

// Option configures a Server at construction.
type Option func(*Server)

// WithGraphInfoCap sets the vertex-count cap above which /graph answers
// 413 instead of probing O(n) state for sources without O(1) summary
// capabilities. Zero or negative restores the default.
func WithGraphInfoCap(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.infoCap = n
		}
	}
}

// New returns a server whose default source is the in-memory graph g.
func New(g *graph.Graph, seed rnd.Seed, opts ...Option) *Server {
	return NewFromSource(g, "(in-memory graph)", seed, opts...)
}

// NewFromSource returns a server whose default source is src; spec is the
// provenance string echoed by /sources and /graph.
func NewFromSource(src source.Source, spec string, seed rnd.Seed, opts ...Option) *Server {
	s := &Server{
		seed:    seed,
		infoCap: DefaultGraphInfoCap,
		sources: map[string]*namedSource{"": {name: "", spec: spec, src: src}},
		met:     newServerMetrics(metrics.NewRegistry()),
		traces:  trace.NewRing(0, 0),
	}
	for _, o := range opts {
		o(s)
	}
	s.bindTenantMetrics()
	return s
}

// Handler returns the HTTP routing table: one route per query kind plus
// discovery, introspection and metrics endpoints. The whole table sits
// behind the request-ID middleware, so every response is correlatable.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET "+MetricsPath, s.handleMetrics)
	mux.HandleFunc("GET /graph", s.handleGraph)
	mux.HandleFunc("GET /algos", s.handleAlgos)
	mux.HandleFunc("GET /sources", s.handleSourcesList)
	mux.HandleFunc("POST /sources", s.handleSourcesOpen)
	mux.HandleFunc("GET /edge/{algo}", s.handleQuery(registry.KindEdge))
	mux.HandleFunc("GET /vertex/{algo}", s.handleQuery(registry.KindVertex))
	mux.HandleFunc("GET /label/{algo}", s.handleQuery(registry.KindLabel))
	mux.HandleFunc("GET /estimate/{algo}", s.handleEstimate)
	mux.HandleFunc("GET /probe", s.probeHandler(source.ServeProbe))
	mux.HandleFunc("POST /probe", s.probeHandler(source.ServeProbeBatch))
	mux.HandleFunc("GET /probe/meta", s.probeHandler(source.ServeProbeMeta))
	mux.HandleFunc("GET "+TracesPath, s.handleTraces)
	mux.HandleFunc("GET "+TracesPath+"/{id}", s.handleTraceGet)
	return withRequestID(mux)
}

// probeHandler adapts one wire-protocol handler to the named-source
// table, making the server act as a probe shard for any of its sources.
func (s *Server) probeHandler(serve func(http.ResponseWriter, *http.Request, source.Source)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.met.probeRequests.Inc()
		ns, err := s.sourceFor(r)
		if err != nil {
			s.writeError(w, err)
			return
		}
		serve(w, r, ns.src)
	}
}

// Close closes every named source holding external resources (CSR file
// handles, remote shard connections). The server must not be queried
// afterwards.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for _, ns := range s.sources {
		if c, ok := ns.src.(source.Closer); ok {
			errs = append(errs, c.Close())
		}
	}
	s.sources = map[string]*namedSource{}
	return errors.Join(errs...)
}

type errorBody struct {
	Error     string `json:"error"`
	Status    int    `json:"status"`
	RequestID string `json:"request_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{
		Error:     fmt.Sprintf(format, args...),
		Status:    status,
		RequestID: w.Header().Get(RequestIDHeader),
	})
}

// httpError carries a status code through the request-parsing helpers so
// every failure path produces the same JSON envelope.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) *httpError {
	return &httpError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

func writeHTTPError(w http.ResponseWriter, err error) {
	if he, ok := err.(*httpError); ok {
		writeErr(w, he.status, "%s", he.msg)
		return
	}
	writeErr(w, http.StatusInternalServerError, "%v", err)
}

// probeErr maps an error of a probing call (oracle.Catch, Kind.Ask) to
// its envelope — the Source and Oracle interfaces have no error returns,
// so these arrive as typed panics: a remote-shard probe failure becomes a
// 502 (the server degrades instead of crashing the connection), a tenant
// budget exhaustion a 429 (the admission-control contract: the query cost
// more probes or round trips than the tenant is allowed per query), and
// an edge query off the graph a 400. Other errors pass through.
func probeErr(err error) error {
	switch e := err.(type) {
	case *source.ProbeError:
		return &httpError{status: http.StatusBadGateway, msg: e.Error()}
	case oracle.ErrBudgetExceeded:
		return &httpError{status: http.StatusTooManyRequests,
			msg: fmt.Sprintf("per-query probe budget %d exhausted; narrow the query or raise the tenant budget", e.Budget)}
	case oracle.ErrTripBudgetExceeded:
		return &httpError{status: http.StatusTooManyRequests,
			msg: fmt.Sprintf("per-query round-trip budget %d exhausted; narrow the query or raise the tenant budget", e.Budget)}
	case *registry.NotEdgeError:
		return badRequest("%v", e)
	}
	return err
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// sourceFor resolves the request's ?source= selector (default source when
// absent) against the open-source table.
func (s *Server) sourceFor(r *http.Request) (*namedSource, error) {
	name := r.URL.Query().Get("source")
	s.mu.RLock()
	defer s.mu.RUnlock()
	ns, ok := s.sources[name]
	if !ok {
		return nil, notFound("unknown source %q (see /sources)", name)
	}
	return ns, nil
}

type graphInfo struct {
	N         int    `json:"n"`
	M         int    `json:"m"`
	MaxDegree int    `json:"max_degree"`
	Source    string `json:"source,omitempty"`
	Spec      string `json:"spec,omitempty"`
}

// handleGraph summarizes a source. Materialized graphs and closed-form
// implicit families answer in O(1); anything else is probed vertex by
// vertex, which the info cap guards — a billion-vertex source answers 413,
// not an hour of degree probes.
func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	// The summary may probe O(n) state on capability-less sources, so it
	// is tenant-gated traffic like the query plane.
	if _, err := s.admitTenant(w, r); err != nil {
		s.writeError(w, err)
		return
	}
	ns, err := s.sourceFor(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	info := graphInfo{N: ns.src.N(), Source: ns.name, Spec: ns.spec}
	mc, haveM := source.EdgeCounterOf(ns.src)
	db, haveMax := source.DegreeBounderOf(ns.src)
	if haveM && haveMax {
		info.M = mc.M()
		info.MaxDegree = db.MaxDegree()
		writeJSON(w, http.StatusOK, info)
		return
	}
	if info.N > s.infoCap {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"graph summary would probe n=%d vertices, above the cap %d; query the source by point probes instead", info.N, s.infoCap)
		return
	}
	stubs := 0
	if err := probeErr(oracle.Catch(func() {
		for v := 0; v < info.N; v++ {
			d := ns.src.Degree(v)
			stubs += d
			if d > info.MaxDegree {
				info.MaxDegree = d
			}
		}
	})); err != nil {
		s.writeError(w, err)
		return
	}
	info.M = stubs / 2
	if haveM {
		info.M = mc.M()
	}
	writeJSON(w, http.StatusOK, info)
}

// sourceInfo is one /sources catalog entry. Health carries the
// per-replica state of sharded sources (absent otherwise), so the source
// listing doubles as the fleet's failover dashboard.
type sourceInfo struct {
	Name   string               `json:"name"`
	Spec   string               `json:"spec"`
	N      int                  `json:"n"`
	Health []source.ShardHealth `json:"health,omitempty"`
}

type sourcesBody struct {
	Sources  []sourceInfo `json:"sources"`
	Families []string     `json:"families"`
}

func (s *Server) handleSourcesList(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	out := make([]sourceInfo, 0, len(s.sources))
	for _, ns := range s.sources {
		info := sourceInfo{Name: ns.name, Spec: ns.spec, N: ns.src.N()}
		if health, ok := source.HealthOf(ns.src); ok {
			info.Health = health
		}
		out = append(out, info)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	fams := source.Families()
	usages := make([]string, len(fams))
	for i, f := range fams {
		usages[i] = f.Usage
	}
	writeJSON(w, http.StatusOK, sourcesBody{Sources: out, Families: usages})
}

// handleSourcesOpen opens a source by spec under a name — the open-by-spec
// endpoint: a replica can be pointed at a billion-vertex implicit source
// or a CSR file on its local disk without restarting.
func (s *Server) handleSourcesOpen(w http.ResponseWriter, r *http.Request) {
	// Opening sources mutates server state: on a tenant-gated server it
	// requires a configured token (no admission charge — it is rare,
	// administrative traffic).
	if _, err := s.tenantFor(r); err != nil {
		s.writeError(w, err)
		return
	}
	name := r.URL.Query().Get("name")
	spec := r.URL.Query().Get("spec")
	if name == "" || spec == "" {
		s.writeError(w, badRequest("POST /sources requires non-empty name and spec query parameters"))
		return
	}
	src, err := source.Parse(spec, s.seed)
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	ns := &namedSource{name: name, spec: spec, src: src}
	s.mu.Lock()
	_, dup := s.sources[name]
	if !dup {
		s.sources[name] = ns
	}
	s.mu.Unlock()
	if dup {
		if c, ok := src.(source.Closer); ok {
			_ = c.Close()
		}
		writeErr(w, http.StatusConflict, "source %q already open", name)
		return
	}
	writeJSON(w, http.StatusCreated, sourceInfo{Name: name, Spec: spec, N: src.N()})
}

// algoInfo is one /algos catalog entry.
type algoInfo struct {
	Name    string           `json:"name"`
	Aliases []string         `json:"aliases,omitempty"`
	Kind    string           `json:"kind"`
	Summary string           `json:"summary"`
	Params  []registry.Param `json:"params,omitempty"`
}

func (s *Server) handleAlgos(w http.ResponseWriter, _ *http.Request) {
	ds := registry.All()
	out := make([]algoInfo, 0, len(ds))
	for _, d := range ds {
		out = append(out, algoInfo{
			Name:    d.Name,
			Aliases: d.Aliases,
			Kind:    string(d.Kind),
			Summary: d.Summary,
			Params:  d.Params,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// request parsing ------------------------------------------------------

// queryParams validates the full query string: positional keys (u, v,
// samples, ...) are parsed by the caller and listed in reserved; every
// other key must be a parameter the descriptor declares, parsed per its
// declared type. Unknown keys are 400s — a typo must never degrade into a
// silently ignored parameter or a zero-value query. Of several failing
// keys the 400 names the one that sorts first, whatever the map's order.
func queryParams(r *http.Request, d *registry.Descriptor, reserved ...string) (registry.Params, error) {
	p := registry.Params{}
	var bad string // the failing key that sorts first so far, once err is set
	var err error
	for key, vals := range r.URL.Query() {
		if slices.Contains(reserved, key) || (err != nil && key > bad) {
			continue
		}
		if !d.HasParam(key) {
			bad, err = key, badRequest("unknown query parameter %q for algorithm %q", key, d.Name)
		} else if len(vals) != 1 {
			bad, err = key, badRequest("parameter %q given %d times, want 1", key, len(vals))
		} else if v, perr := d.ParseValue(key, vals[0]); perr != nil {
			bad, err = key, badRequest("%v", perr)
		} else {
			p[key] = v
		}
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// vertexParam parses a required vertex-ID query parameter against src's
// vertex range.
func vertexParam(r *http.Request, src source.Source, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, badRequest("missing query parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("parameter %q: %q is not an integer", name, raw)
	}
	if v < 0 || v >= src.N() {
		return 0, badRequest("vertex %d out of range [0,%d)", v, src.N())
	}
	return v, nil
}

// prefetchParam parses the optional prefetch=0|1|false|true selector.
func prefetchParam(r *http.Request) (bool, error) {
	switch raw := r.URL.Query().Get("prefetch"); raw {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	default:
		return false, badRequest("parameter \"prefetch\": %q is not a boolean (want 0/1/false/true)", raw)
	}
}

// build constructs a fresh per-request instance over src — the
// request's view of its named source (source.TracedView), so the round
// trips it counts are the request's own and its spans land in the
// request's trace — through the oracle chain the request and tenant
// select (tenantState.chainConfig), behind the
// audit-transcript recorder when the server keeps an audit log (the
// returned recorder is nil otherwise); parameter errors the registry
// reports after our own validation (range checks inside New) are the
// client's fault, hence 400 — except a BadInstanceError, which marks a
// broken registration and must surface as a server error.
func (s *Server) build(d *registry.Descriptor, src source.Source, p registry.Params, prefetch bool, ten *tenantState, tr *trace.Tracer) (any, *auditOracle, error) {
	o := oracle.NewChain(src, ten.chainConfig(prefetch, tr))
	var rec *auditOracle
	if s.audit != nil {
		// Outermost, directly under the LCA: the transcript records the
		// cell probes the algorithm issued, independent of how the row
		// tier or budgets transported them — exactly what a replay needs.
		rec = newAuditOracle(o)
		o = rec
	}
	inst, err := d.Build(o, s.seed, p)
	if err != nil {
		var bad *registry.BadInstanceError
		if errors.As(err, &bad) {
			return nil, nil, &httpError{status: http.StatusInternalServerError, msg: err.Error()}
		}
		return nil, nil, badRequest("%v", err)
	}
	return inst, rec, nil
}

// queryKey is the coalescing identity of a query: kind, algorithm,
// source, canonical parameters, prefetch selector, the server seed, the
// tenant's budget shape (only identically budgeted requests may share
// an execution) and the tracing decision (a traced execution must not
// serve untraced callers, nor bill them its overhead), plus the query
// coordinates. Everything an answer depends on, nothing more — two
// requests with equal keys are guaranteed byte-identical answers.
func (s *Server) queryKey(kind, algo, srcName string, p registry.Params, prefetch bool, dec traceDecision, ten *tenantState, coords string) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	params := make([]string, len(keys))
	for i, k := range keys {
		params[i] = fmt.Sprintf("%s=%v", k, p[k])
	}
	return strings.Join([]string{
		kind, algo, srcName, strings.Join(params, ","),
		strconv.FormatBool(prefetch), strconv.FormatUint(uint64(s.seed), 10),
		ten.budgetKey(), dec.key(), coords,
	}, "\x00")
}

// failQuery writes the error envelope and attributes budget rejections
// to the tenant's metrics (admission rejections are counted at the
// gate).
func (s *Server) failQuery(w http.ResponseWriter, ten *tenantState, err error) {
	if he, ok := err.(*httpError); ok && he.status == http.StatusTooManyRequests && ten != nil {
		ten.budgetRejected.Inc()
	}
	s.writeError(w, err)
}

func statsOf(inst any) oracle.Stats {
	if rep, ok := inst.(core.ProbeReporter); ok {
		return rep.ProbeStats()
	}
	return oracle.Stats{}
}

// kind handlers --------------------------------------------------------

// pointAnswer is the answer of every point query: the algorithm, the
// query's coordinates (u on edge queries only), the kind's answer field
// (in or label), and the query's probe total and telemetry.
type pointAnswer struct {
	Algo string `json:"algo"`
	U    *int   `json:"u,omitempty"`
	V    int    `json:"v"`
	registry.Answer
	Probes uint64 `json:"probes"`
	oracle.Telemetry
	TraceID string       `json:"trace_id,omitempty"`
	Trace   []trace.Span `json:"trace,omitempty"`
}

// request is what the prelude of a query request resolves: its start,
// the admitted tenant, the algorithm, the named source, the algorithm's
// parameters, the prefetch selector and whether the request forces a
// trace.
type request struct {
	start    time.Time
	ten      *tenantState
	d        *registry.Descriptor
	ns       *namedSource
	p        registry.Params
	prefetch bool
	forced   bool
}

// prelude makes the checks every query request makes first, in this
// order: tenant admission, the path's algorithm (unknown is a 404, and
// accept rejects the kinds the route does not answer), the source, the
// parameters (every key outside reserved), prefetch and trace.
func (s *Server) prelude(w http.ResponseWriter, r *http.Request, accept func(*registry.Descriptor) error, reserved []string) (req request, err error) {
	req.start = time.Now()
	if req.ten, err = s.admitTenant(w, r); err != nil {
		return req, err
	}
	name := r.PathValue("algo")
	if req.d, err = registry.Get(name); err != nil {
		return req, notFound("unknown algorithm %q (see /algos)", name)
	}
	if err = accept(req.d); err != nil {
		return req, err
	}
	if req.ns, err = s.sourceFor(r); err != nil {
		return req, err
	}
	if req.p, err = queryParams(r, req.d, reserved...); err != nil {
		return req, err
	}
	if req.prefetch, err = prefetchParam(r); err != nil {
		return req, err
	}
	req.forced, err = traceParam(r)
	return req, err
}

// handleQuery answers /edge, /vertex and /label: kind is the route's
// query kind, whose coordinates, answer and root span the registry's
// kind table gives.
func (s *Server) handleQuery(kind registry.Kind) http.HandlerFunc {
	coords := kind.Coords()
	reserved := append([]string{"source", "prefetch", "trace"}, coords...)
	accept := func(d *registry.Descriptor) error {
		if d.Kind != kind {
			return notFound("algorithm %q answers %s queries, not %s (see /algos)", d.Name, d.Kind, kind)
		}
		return nil
	}
	return func(w http.ResponseWriter, r *http.Request) {
		req, err := s.prelude(w, r, accept, reserved)
		if err != nil {
			s.writeError(w, err)
			return
		}
		var q registry.Query
		at := make(map[string]int, len(coords))
		keys := make([]string, len(coords))
		for i, c := range coords {
			if q[i], err = vertexParam(r, req.ns.src, c); err != nil {
				s.writeError(w, err)
				return
			}
			at[c] = q[i]
			keys[i] = fmt.Sprintf("%s=%d", c, q[i])
		}
		dec := s.traceDecision(req.forced)
		key := s.queryKey(string(kind), req.d.Name, req.ns.name, req.p, req.prefetch, dec, req.ten, strings.Join(keys, ","))
		ans, err, _ := s.flights.do(key, s.met.coalesced.Inc, func() (any, error) {
			qt := dec.begin()
			tr := qt.tracer()
			root := tr.Root(kind.Span(), q[0], req.d.Name)
			src := source.TracedView(req.ns.src, tr)
			var inst any
			var rec *auditOracle
			// The input-edge check runs inside the flight: it is oracle
			// traffic, shared once per coalesced key like the query.
			a, err := kind.Ask(src, func() (func(registry.Query) registry.Answer, error) {
				var err error
				if inst, rec, err = s.build(req.d, src, req.p, req.prefetch, req.ten, tr); err != nil {
					return nil, err
				}
				ask, _ := kind.Bind(inst) // build checked the instance answers kind
				return ask, nil
			}, q)
			tr.EndRoot(root, err)
			if err != nil {
				s.finishTrace(qt, oracle.Stats{})
				return nil, probeErr(err)
			}
			st := statsOf(inst)
			s.met.observeExec(st)
			ans := pointAnswer{Algo: req.d.Name, V: at["v"], Answer: a,
				Probes: st.Total(), Telemetry: st.Telemetry}
			if u, ok := at["u"]; ok {
				ans.U = &u
			}
			s.recordAudit(string(kind), req.d, req.ns, req.p, at, rec, a)
			ans.TraceID, ans.Trace = s.finishTrace(qt, st)
			return ans, nil
		})
		if err != nil {
			s.failQuery(w, req.ten, err)
			return
		}
		s.met.observeRequest(string(kind), time.Since(req.start))
		s.logQuery(w, string(kind), req.d.Name, req.ten, time.Since(req.start), ans)
		writeJSON(w, http.StatusOK, ans)
	}
}

type estimateAnswer struct {
	Algo       string       `json:"algo"`
	Kind       string       `json:"kind"`
	Fraction   float64      `json:"fraction"`
	ErrorBound float64      `json:"error_bound"`
	Samples    int          `json:"samples"`
	TraceID    string       `json:"trace_id,omitempty"`
	Trace      []trace.Span `json:"trace,omitempty"`
}

// estimable accepts the edge- and vertex-kind algorithms, whose solution
// fractions /estimate estimates.
func estimable(d *registry.Descriptor) error {
	if d.Kind == registry.KindLabel {
		return notFound("algorithm %q answers label queries; fractions are estimable for edge and vertex kinds", d.Name)
	}
	return nil
}

// handleEstimate estimates the solution fraction of any edge- or
// vertex-kind algorithm by sampled point queries (Hoeffding-bounded, 95%).
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	req, err := s.prelude(w, r, estimable, []string{"samples", "source", "prefetch", "trace"})
	if err != nil {
		s.writeError(w, err)
		return
	}
	samples := 500
	if raw := r.URL.Query().Get("samples"); raw != "" {
		parsed, perr := strconv.Atoi(raw)
		if perr != nil || parsed < 1 || parsed > 1_000_000 {
			s.writeError(w, badRequest("parameter \"samples\": %q is not an integer in [1,1000000]", raw))
			return
		}
		samples = parsed
	}
	const delta = 0.05
	dec := s.traceDecision(req.forced)
	key := s.queryKey("estimate", req.d.Name, req.ns.name, req.p, req.prefetch, dec, req.ten, fmt.Sprintf("samples=%d", samples))
	ans, err, _ := s.flights.do(key, s.met.coalesced.Inc, func() (any, error) {
		qt := dec.begin()
		tr := qt.tracer()
		root := tr.Root("query:estimate", -1, req.d.Name)
		src := source.TracedView(req.ns.src, tr)
		o := oracle.NewChain(src, req.ten.chainConfig(req.prefetch, tr))
		var res estimate.Result
		var ferr error
		err := oracle.Catch(func() {
			res, ferr = estimate.Fraction(req.d, src, o, s.seed, req.p, samples, delta)
		})
		if err == nil && ferr != nil {
			// Kind and samples were validated above; what remains is bad
			// parameter values, which are the client's.
			err = badRequest("%v", ferr)
		}
		tr.EndRoot(root, err)
		id, spans := s.finishTrace(qt, oracle.Stats{})
		if err != nil {
			return nil, probeErr(err)
		}
		return estimateAnswer{
			Algo:       req.d.Name,
			Kind:       string(req.d.Kind),
			Fraction:   res.Fraction,
			ErrorBound: res.ErrorBound,
			Samples:    res.Samples,
			TraceID:    id,
			Trace:      spans,
		}, nil
	})
	if err != nil {
		s.failQuery(w, req.ten, err)
		return
	}
	s.met.observeRequest("estimate", time.Since(req.start))
	// An estimate logs no probe total or telemetry, only its trace ID.
	s.logQuery(w, "estimate", req.d.Name, req.ten, time.Since(req.start), pointAnswer{TraceID: ans.(estimateAnswer).TraceID})
	writeJSON(w, http.StatusOK, ans)
}
