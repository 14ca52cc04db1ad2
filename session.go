package lca

// Session is the unified front door to every registered algorithm: one
// object owning the probe source, the seed, the oracle plumbing, probe
// budgets and parallel assembly, dispatching point and batch queries by
// algorithm name through the internal registry. It replaces the flat
// per-algorithm constructors as the primary API.

import (
	"errors"
	"fmt"
	"sync"

	"lca/internal/core"
	"lca/internal/estimate"
	"lca/internal/graph"
	"lca/internal/oracle"
	"lca/internal/registry"
	"lca/internal/source"
)

// ErrProbeBudget is returned (wrapped) by Session queries that exhaust the
// session's per-query probe budget.
var ErrProbeBudget = errors.New("lca: probe budget exceeded")

// ErrNotMaterialized is returned (wrapped) by batch Build methods on
// sessions whose source is not an in-memory graph: materializing a full
// solution enumerates every element, which is exactly the O(n) work
// implicit and disk-backed sources exist to avoid. Point queries and
// EstimateFraction remain available on any source.
var ErrNotMaterialized = errors.New("lca: batch assembly requires an in-memory graph source")

// AlgoInfo describes one registered algorithm, as discoverable through
// Session.Algos.
type AlgoInfo struct {
	// Name is the registry key accepted by every Session method.
	Name string
	// Kind is "edge", "vertex" or "label" and selects which query methods
	// the algorithm answers.
	Kind string
	// Summary is a one-line description.
	Summary string
	// Params lists the names of the tunable parameters the algorithm
	// accepts via WithParam.
	Params []string
}

// Session answers LCA queries for one graph under one seed. Construct with
// NewSession (in-memory graph) or NewSessionFromSource (any probe backend:
// implicit generators, disk-backed CSR, spec strings via OpenSource); the
// zero value is unusable. Point queries are safe for concurrent use (a
// mutex serializes them — algorithm instances memoize and are not
// concurrency-safe); batch Build methods construct independent instances
// per worker and run embarrassingly parallel.
type Session struct {
	src    Source
	g      *Graph // non-nil iff the source is an in-memory graph
	seed   Seed
	budget uint64
	// workers is the worker count for batch builds; 0 selects GOMAXPROCS,
	// 1 forces serial assembly.
	workers int
	// prefetch puts the row tier in every oracle chain (WithPrefetch).
	prefetch bool
	// rowCache, when non-nil, is the shared L2 of the row tier every
	// oracle chain puts over the source (WithRowCache).
	rowCache *oracle.RowCache
	// tracer, when non-nil, records a probe-level span tree for every
	// point query (WithTracer).
	tracer *Tracer
	params map[string]any

	mu        sync.Mutex
	instances map[string]*boundInstance

	closeOnce sync.Once
	closeErr  error
}

// boundInstance is one constructed algorithm bound to its oracle chain,
// with its canonical name, its query method for the algorithm's kind and
// the chain's probe limiter (nil without a budget) that every point query
// resets.
type boundInstance struct {
	algo  string
	inst  any
	ask   func(registry.Query) registry.Answer
	limit *oracle.LimitOracle
}

// bind returns the instance's query method, for Kind.Ask.
func (bi *boundInstance) bind() (func(registry.Query) registry.Answer, error) { return bi.ask, nil }

// SessionOption configures a Session at construction.
type SessionOption func(*Session)

// WithSeed sets the master random seed (default 0). Two sessions over the
// same graph and seed answer identically — including across processes and
// replicas.
func WithSeed(seed Seed) SessionOption {
	return func(s *Session) { s.seed = seed }
}

// WithProbeBudget enforces a hard per-query probe budget: any point query
// that would exceed b oracle probes fails with an error wrapping
// ErrProbeBudget instead of probing further. Batch builds also enforce the
// budget (per query, serially). 0 disables enforcement.
func WithProbeBudget(b uint64) SessionOption {
	return func(s *Session) { s.budget = b }
}

// WithWorkers sets the worker count for batch Build methods. 0 (the
// default) selects GOMAXPROCS; 1 forces serial assembly. Parallel assembly
// gives every worker its own algorithm instance and is bit-identical to
// serial assembly.
func WithWorkers(w int) SessionOption {
	return func(s *Session) { s.workers = w }
}

// WithPrefetch routes the session's probes through the row tier
// (oracle.TieredOracle): every miss fetches a whole row, so algorithms'
// neighborhood explorations become single batched round trips on
// sources with the batch capability (remote and sharded backends), and
// subsequent scalar probes are served from the cached rows. Answers,
// probe counts and probe budgets are identical with or without it — only
// the transport changes — so it is safe to enable on any source; on
// purely local backends it buys nothing but costs only the row store.
// Per-query round trips are reported via ProbeStats().RoundTrips.
func WithPrefetch(on bool) SessionOption {
	return func(s *Session) { s.prefetch = on }
}

// WithRowCache routes the session's probes through the row tier of the
// hot local path and gives it a shared L2: every oracle chain gets its
// own L1 row store (an arena-backed vertex->row table, allocation-free
// in steady state) and shares one bounded L2 row cache of at most
// entries rows, evicted LRU — parallel batch workers included. Answers,
// probe counts and probe budgets are identical with or without it —
// rows are pure functions of the fixed graph, so only where cells come
// from changes. It pays off on local backends (mmap CSR, implicit
// families) where a whole row costs barely more than a cell. It selects
// the same tier as WithPrefetch, so on network sources its misses batch
// round trips too; setting both is the same as setting WithRowCache.
// entries <= 0 leaves the L2 off.
func WithRowCache(entries int) SessionOption {
	return func(s *Session) {
		if entries > 0 {
			s.rowCache = oracle.NewRowCache(entries)
		}
	}
}

// WithTracer records probe-level span trees into tr: every point query
// opens a query:edge/query:vertex/query:label root span tagged with the
// algorithm's canonical name (algo=NAME), and also error when the query
// fails; the oracle layers add exploration, cache-hit and budget spans,
// and network sources add per-round-trip rpc spans — with remote shards'
// serverside spans stitched in over the X-LCA-Trace wire header. Spans
// from successive queries accumulate in tr (one tree per query, side by
// side) up to its span cap; use a fresh session and tracer per traced
// run to keep trees separate. Point queries are mutex-serialized, so
// one tracer serves them all. A nil tracer leaves tracing off — the
// default, which costs the probing hot path nothing.
func WithTracer(tr *Tracer) SessionOption {
	return func(s *Session) { s.tracer = tr }
}

// WithParam supplies a tunable parameter (for example WithParam("k", 4) or
// WithParam("memo", true)). The value applies to every algorithm that
// declares the parameter and is ignored by algorithms that do not, so one
// session can carry parameters for several algorithms. Values must be int,
// float64 or bool per the parameter's declared type; mismatches surface as
// errors from the query that first builds the algorithm.
func WithParam(name string, value any) SessionOption {
	return func(s *Session) { s.params[name] = value }
}

// NewSession returns a session answering queries about g.
func NewSession(g *Graph, opts ...SessionOption) *Session {
	return NewSessionFromSource(g, opts...)
}

// NewSessionFromSource returns a session answering queries through any
// probe source — an implicit generator, a cold disk-backed CSR file, or an
// in-memory graph (NewSession is this function specialized to graphs).
// Point queries and EstimateFraction work on every source without ever
// holding O(n) state; the batch Build methods additionally require an
// in-memory graph (they enumerate all elements) and return
// ErrNotMaterialized otherwise.
func NewSessionFromSource(src Source, opts ...SessionOption) *Session {
	s := &Session{
		src:       src,
		params:    map[string]any{},
		instances: map[string]*boundInstance{},
	}
	if g, ok := src.(*graph.Graph); ok {
		s.g = g
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// OpenSource opens a probe source from a spec string — the grammar every
// CLI and the HTTP server share: "ring:n=1000000000", "csr:web.csr",
// "blockrandom:n=1e9,d=8", or a bare edge-list file path. seed feeds the
// randomized families (a seed=... key in the spec overrides it).
func OpenSource(spec string, seed Seed) (Source, error) {
	return source.Parse(spec, seed)
}

// SourceFamilies lists the spec families OpenSource understands, with
// usage strings.
func SourceFamilies() []string {
	fs := source.Families()
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Usage
	}
	return out
}

// Close releases the session's probe source when it holds external
// resources — the CSR backend's file handle, a remote source's shard
// connections, every such shard of a sharded source. Sources without
// resources (in-memory graphs, implicit generators) make Close a no-op.
// Idempotent: repeated calls return the first result. The session must
// not be queried after Close.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		if c, ok := s.src.(source.Closer); ok {
			s.closeErr = c.Close()
		}
	})
	return s.closeErr
}

// Graph returns the session's in-memory graph, or nil when the session
// runs over a non-materialized source.
func (s *Session) Graph() *Graph { return s.g }

// Source returns the session's probe source.
func (s *Session) Source() Source { return s.src }

// Seed returns the session's master seed.
func (s *Session) Seed() Seed { return s.seed }

// Algos lists every registered algorithm.
func (s *Session) Algos() []AlgoInfo {
	ds := registry.All()
	out := make([]AlgoInfo, 0, len(ds))
	for _, d := range ds {
		info := AlgoInfo{Name: d.Name, Kind: string(d.Kind), Summary: d.Summary}
		for _, p := range d.Params {
			info.Params = append(info.Params, p.Name)
		}
		out = append(out, info)
	}
	return out
}

// declaredParams filters the session's parameters down to those the
// descriptor declares, so session-wide parameters may span algorithms.
func (s *Session) declaredParams(d *registry.Descriptor) registry.Params {
	p := registry.Params{}
	for name, v := range s.params {
		if d.HasParam(name) {
			p[name] = v
		}
	}
	return p
}

// descriptor resolves algo against the registry and checks its kind.
func (s *Session) descriptor(algo string, kind registry.Kind) (*registry.Descriptor, error) {
	d, err := registry.Get(algo)
	if err != nil {
		return nil, err
	}
	if d.Kind != kind {
		return nil, fmt.Errorf("lca: algorithm %q answers %s queries, not %s", d.Name, d.Kind, kind)
	}
	return d, nil
}

// buildInstance constructs a fresh instance over a new oracle chain
// built from the session's configuration (oracle.NewChain): the row tier
// when WithPrefetch or WithRowCache is on, the probe budget above it,
// and the session's tracer handed to every layer. It returns the chain's
// probe limiter (nil without a budget), which sits above the row tier,
// so budgets charge per cell while batching only changes the transport
// underneath.
func (s *Session) buildInstance(d *registry.Descriptor, p registry.Params) (any, *oracle.LimitOracle, error) {
	o := oracle.NewChain(s.src, oracle.ChainConfig{
		Prefetch:    s.prefetch,
		RowCache:    s.rowCache,
		ProbeBudget: s.budget,
		Tracer:      s.tracer,
	})
	limit, _ := o.(*oracle.LimitOracle)
	inst, err := d.Build(o, s.seed, p)
	if err != nil {
		return nil, nil, err
	}
	return inst, limit, nil
}

// instance returns the session's cached point-query instance for algo,
// constructing it on first use. The cache is keyed by the canonical
// registry name, so an alias and its canonical name share one instance
// (and one probe account). Callers must hold s.mu.
func (s *Session) instance(algo string, kind registry.Kind) (*boundInstance, error) {
	d, err := s.descriptor(algo, kind)
	if err != nil {
		return nil, err
	}
	if bi, ok := s.instances[d.Name]; ok {
		return bi, nil
	}
	inst, limit, err := s.buildInstance(d, s.declaredParams(d))
	if err != nil {
		return nil, err
	}
	ask, _ := kind.Bind(inst) // Build checked the instance answers kind
	bi := &boundInstance{algo: d.Name, inst: inst, ask: ask, limit: limit}
	s.instances[d.Name] = bi
	return bi, nil
}

// queryErr maps an error of a probing call (oracle.Catch, Kind.Ask) to
// the session's surface: budget exhaustion wraps ErrProbeBudget, and
// anything else — a network source's probe failure, a non-edge — gains
// the lca: prefix.
func queryErr(err error) error {
	if err == nil {
		return nil
	}
	if be, ok := err.(oracle.ErrBudgetExceeded); ok {
		return fmt.Errorf("%w (budget %d)", ErrProbeBudget, be.Budget)
	}
	return fmt.Errorf("lca: %w", err)
}

// point is the one body of the point queries: it checks the query's
// coordinates, restarts the probe budget and asks algo's point-query
// instance through Kind.Ask under the kind's root span.
func (s *Session) point(algo string, kind registry.Kind, q registry.Query) (registry.Answer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bi, err := s.instance(algo, kind)
	if err != nil {
		return registry.Answer{}, err
	}
	for i := range kind.Coords() {
		if err := s.checkVertex(q[i]); err != nil {
			return registry.Answer{}, err
		}
	}
	if bi.limit != nil {
		bi.limit.Reset()
	}
	root := s.tracer.Root(kind.Span(), q[0], bi.algo)
	a, err := kind.Ask(s.src, bi.bind, q)
	err = queryErr(err)
	s.tracer.EndRoot(root, err)
	return a, err
}

// Edge answers an edge-membership point query: whether input edge (u,v)
// belongs to algo's fixed global solution. (u,v) must be an edge of the
// graph — the LCA contract only defines answers for input edges.
func (s *Session) Edge(algo string, u, v int) (bool, error) {
	a, err := s.point(algo, registry.KindEdge, registry.Query{u, v})
	if err != nil {
		return false, err
	}
	return *a.In, nil
}

// Vertex answers a vertex-membership point query.
func (s *Session) Vertex(algo string, v int) (bool, error) {
	a, err := s.point(algo, registry.KindVertex, registry.Query{v})
	if err != nil {
		return false, err
	}
	return *a.In, nil
}

// Label answers a vertex-labeling point query.
func (s *Session) Label(algo string, v int) (int, error) {
	a, err := s.point(algo, registry.KindLabel, registry.Query{v})
	if err != nil {
		return 0, err
	}
	return *a.Label, nil
}

func (s *Session) checkVertex(v int) error {
	if v < 0 || v >= s.src.N() {
		return fmt.Errorf("lca: vertex %d out of range [0,%d)", v, s.src.N())
	}
	return nil
}

// ProbeStats returns the cumulative probe counts of algo's point-query
// instance (zero if the session has not queried algo yet). Unknown
// algorithm names are errors, so a typo cannot read as a free algorithm.
func (s *Session) ProbeStats(algo string) (ProbeStats, error) {
	d, err := registry.Get(algo)
	if err != nil {
		return ProbeStats{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	bi, ok := s.instances[d.Name]
	if !ok {
		return ProbeStats{}, nil
	}
	if rep, ok := bi.inst.(core.ProbeReporter); ok {
		return rep.ProbeStats(), nil
	}
	return ProbeStats{}, nil
}

// batchSetup resolves a batch build: descriptor, parameters (memoized by
// default — batch assembly is exactly the many-queries-one-instance case
// memoization amortizes; override with WithParam("memo", false)), and a
// validated first instance that doubles as the first worker's. Batch
// assembly enumerates every element of the graph, so it refuses
// non-materialized sources.
func (s *Session) batchSetup(algo string, kind registry.Kind) (*registry.Descriptor, registry.Params, any, *oracle.LimitOracle, error) {
	d, err := s.descriptor(algo, kind)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if s.g == nil {
		return nil, nil, nil, nil, fmt.Errorf("%w (point queries and EstimateFraction work on any source)", ErrNotMaterialized)
	}
	p := d.WithMemoDefault(s.declaredParams(d))
	inst, limit, err := s.buildInstance(d, p)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return d, p, inst, limit, nil
}

// batch is the one body of the batch builds: it resolves algo for kind,
// builds the first worker's instance, and runs build, one of core's kind
// assemblies, over the session's graph. A probe budget assembles on one
// worker and restarts the budget window before every query, so the
// budget is per query, not per build.
func batch[L, R any](s *Session, algo string, kind registry.Kind, build func(*graph.Graph, func() L, int, func()) (R, QueryStats)) (R, QueryStats, error) {
	var r R
	var qs QueryStats
	d, p, inst, limit, err := s.batchSetup(algo, kind)
	if err != nil {
		return r, qs, err
	}
	var before func()
	workers := s.workers
	if limit != nil {
		workers, before = 1, limit.Reset
	}
	first := handoff(inst)
	err = queryErr(oracle.Catch(func() {
		r, qs = build(s.g, func() L { return s.workerInstance(d, p, first).(L) }, workers, before)
	}))
	return r, qs, err
}

// BuildSubgraph materializes algo's full edge solution by querying every
// edge of the graph, in parallel over the session's worker count (a
// probe budget assembles on one worker).
func (s *Session) BuildSubgraph(algo string) (*Graph, QueryStats, error) {
	return batch(s, algo, registry.KindEdge, core.Subgraph)
}

// BuildVertexSet materializes algo's full vertex solution.
func (s *Session) BuildVertexSet(algo string) ([]bool, QueryStats, error) {
	return batch(s, algo, registry.KindVertex, core.VertexSet)
}

// BuildLabels materializes algo's full labeling. Each worker builds its
// own chain, as every batch build does; with WithRowCache the workers
// share the session's L2.
func (s *Session) BuildLabels(algo string) ([]int, QueryStats, error) {
	return batch(s, algo, registry.KindLabel, core.Labels)
}

// handoff returns a take-once accessor for the validated first instance;
// worker factories run concurrently, so consumption is mutex-guarded.
func handoff(inst any) func() any {
	var mu sync.Mutex
	return func() any {
		mu.Lock()
		defer mu.Unlock()
		i := inst
		inst = nil
		return i
	}
}

// workerInstance hands the prebuilt instance to the first caller and
// builds fresh ones, each over its own chain, for the rest.
func (s *Session) workerInstance(d *registry.Descriptor, p registry.Params, first func() any) any {
	if inst := first(); inst != nil {
		return inst
	}
	inst, _, err := s.buildInstance(d, p)
	if err != nil {
		panic(err) // unreachable: the first build validated the inputs
	}
	return inst
}

// EstimateFraction estimates the fraction of elements (edges for edge-kind
// algorithms, vertices for vertex-kind) that belong to algo's solution
// from the given number of sampled point queries, with a Hoeffding
// confidence radius at level 1-delta. It runs on a fresh unbudgeted,
// untraced instance over the session's row tier (WithPrefetch,
// WithRowCache), memoized when the algorithm supports it (the estimator
// issues many queries; pass WithParam("memo", false) to override);
// sampling seeds derive from the session seed and the algorithm name, so
// repeated calls are deterministic.
func (s *Session) EstimateFraction(algo string, samples int, delta float64) (EstimateResult, error) {
	d, err := registry.Get(algo)
	if err != nil {
		return EstimateResult{}, err
	}
	var res EstimateResult
	var ferr error
	// The estimator probes the source directly, so a network source's
	// probe failure surfaces here exactly as in point queries: as an
	// error, never a panic through user code.
	if perr := queryErr(oracle.Catch(func() {
		o := oracle.NewChain(s.src, oracle.ChainConfig{Prefetch: s.prefetch, RowCache: s.rowCache})
		res, ferr = estimate.Fraction(d, s.src, o, s.seed, s.declaredParams(d), samples, delta)
	})); perr != nil {
		return EstimateResult{}, perr
	}
	return res, ferr
}
