package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lca"
	"lca/internal/gen"
	"lca/internal/rnd"
	"lca/internal/serve"
	"lca/internal/source"
)

// The served workloads: requests go over loopback HTTP to a serve
// handler started in this process.
//
// serve-skewed: a closed loop of two connections to one handler over an
// implicit circulant, through a tenant whose probe budget never binds; a
// mix of vertex/mis, label/coloring and edge/spanner3 on Zipf-skewed
// targets.
//
// fleet-prefetch: a closed loop of two clients to a front handler over a
// sharded source of two loopback shard handlers; every query sets
// prefetch=1; uniform vertex/mis and label/coloring targets.
const (
	skewN      = 100_000_000
	skewD      = 8
	skewConns  = 2    // closed-loop clients, one connection each
	skewQPSCap = 6000 // list length per client per second of run
	// skewPrefixRate and fleetPrefixRate size probes_per_query's prefix:
	// answers per client per second that a run at half this machine's
	// speed still reaches.
	skewPrefixRate = 1500
	skewHot        = 1 << 17 // vertices of the permutation the Zipf ranks index
	skewWarm       = 1000    // warm-up requests
	skewZipfS      = 1.1
	skewZipfV      = 8.0

	fleetN          = 1_000_000
	fleetD          = 8
	fleetShards     = 2
	fleetClients    = 2
	fleetQPSCap     = 1500 // list length per client per second of run
	fleetPrefixRate = 100
	fleetWarm       = 200 // warm-up requests

	servedCheckOps = 300
	tenantToken    = "perfbench"

	// servedGraphSeed fixes the circulant's offsets, the algorithms' seed
	// and the skewed workload's vertex permutation: the graph is part of
	// the workload's definition, and --seed draws the query stream.
	servedGraphSeed = 2019
)

// answer is the union of the serve answer shapes the benchmark reads.
type answer struct {
	In          *bool  `json:"in"`
	Label       *int   `json:"label"`
	Probes      uint64 `json:"probes"`
	RoundTrips  uint64 `json:"round_trips"`
	Remainders  uint64 `json:"remainder_trips"`
	PageTouches uint64 `json:"page_touches"`
	LocalHits   uint64 `json:"local_hits"`
}

func (a answer) value() int64 {
	switch {
	case a.In != nil:
		return b2i(*a.In)
	case a.Label != nil:
		return int64(*a.Label)
	}
	return -1
}

// served is a workload behind an HTTP front.
type served struct {
	name     string
	spec     string
	n, d     int
	algos    []string
	lcaSeed  rnd.Seed
	qSeed    rnd.Seed
	sh       shape
	measured [][]query
	warm     [][]query
	fixed    []query
	local    *shim // algoNs's source, opened on first use
}

func newSkewed(opt options) pointWorkload {
	return &served{
		name: "serve-skewed", spec: fmt.Sprintf("circulant:n=%d,d=%d", skewN, skewD), n: skewN, d: skewD,
		algos:   []string{"mis", "coloring", "spanner3"},
		lcaSeed: servedGraphSeed, qSeed: rnd.Seed(opt.seed).Derive(3),
		sh: shape{clients: skewConns, probePrefix: int(opt.seconds * skewPrefixRate), setups: 9},
	}
}

func newFleet(opt options) pointWorkload {
	return &served{
		name: "fleet-prefetch", spec: fmt.Sprintf("circulant:n=%d,d=%d", fleetN, fleetD), n: fleetN, d: fleetD,
		algos:   []string{"mis", "coloring"},
		lcaSeed: servedGraphSeed, qSeed: rnd.Seed(opt.seed).Derive(3),
		sh: shape{clients: fleetClients, probePrefix: int(opt.seconds * fleetPrefixRate), setups: 5},
	}
}

func (w *served) fleet() bool { return w.name == "fleet-prefetch" }

func (w *served) mix() []string { return w.algos }

func (w *served) shape() shape { return w.sh }

func (w *served) sizes() map[string]any {
	m := map[string]any{"spec": w.spec, "graph_seed": uint64(w.lcaSeed), "mix": w.algos}
	if w.fleet() {
		m["shards"], m["clients"], m["prefetch"] = fleetShards, fleetClients, true
	} else {
		m["clients"], m["zipf_s"], m["zipf_v"], m["hot_vertices"] = skewConns, skewZipfS, skewZipfV, skewHot
	}
	return m
}

// materialize has nothing to write: the source is implicit.
func (w *served) materialize() error { return nil }

func (w *served) release() {}

func (w *served) lists() ([][]query, [][]query, []query) { return w.measured, w.warm, w.fixed }

// generate builds request paths. Edge queries need real edges, which the
// generator derives from the same circulant offsets the source uses.
func (w *served) generate(seconds float64) error {
	offsets, err := gen.CirculantOffsets(w.n, w.d, w.lcaSeed)
	if err != nil {
		return err
	}
	if w.fleet() {
		per := int(seconds*fleetQPSCap) + 64
		w.measured = make([][]query, fleetClients)
		for c := range w.measured {
			w.measured[c] = w.uniform(rnd.NewPRG(w.qSeed.Derive(uint64(10+c))), per)
		}
		w.warm = [][]query{w.uniform(rnd.NewPRG(w.qSeed.Derive(20)), fleetWarm)}
		w.fixed = w.uniform(rnd.NewPRG(w.qSeed.Derive(30)), servedCheckOps)
		return nil
	}
	// The permutation: skewHot distinct random vertices, fixed with the
	// graph; Zipf rank r targets perm[r].
	prg := rnd.NewPRG(w.lcaSeed.Derive(1))
	perm := make([]int32, 0, skewHot)
	seen := make(map[int32]bool, skewHot)
	for len(perm) < skewHot {
		v := int32(prg.Intn(w.n))
		if !seen[v] {
			seen[v] = true
			perm = append(perm, v)
		}
	}
	src := rand.New(rand.NewPCG(uint64(w.qSeed.Derive(2)), 0))
	zipf := rand.NewZipf(src, skewZipfS, skewZipfV, skewHot-1)
	mk := func(n int) []query {
		qs := make([]query, n)
		for i := range qs {
			kind := int8(src.IntN(len(w.algos)))
			r := int(zipf.Uint64())
			v := int(perm[r])
			q := query{kind: kind, u: int32(v), key: int64(kind)<<40 | int64(r)}
			switch w.algos[kind] {
			case "spanner3":
				// A fixed edge per target, so repeated ranks repeat the query.
				o := offsets[r%len(offsets)]
				q.v = int32((v + o) % w.n)
				q.path = fmt.Sprintf("/edge/spanner3?u=%d&v=%d", v, q.v)
			case "mis":
				q.path = fmt.Sprintf("/vertex/mis?v=%d", v)
			case "coloring":
				q.path = fmt.Sprintf("/label/coloring?v=%d", v)
			}
			qs[i] = q
		}
		return qs
	}
	w.measured = make([][]query, skewConns)
	for c := range w.measured {
		w.measured[c] = mk(int(seconds*skewQPSCap) + 64)
	}
	w.warm = [][]query{mk(skewWarm)}
	w.fixed = mk(servedCheckOps)
	return nil
}

// uniform draws n uniform vertex/mis and label/coloring queries with
// prefetch=1.
func (w *served) uniform(prg *rnd.PRG, n int) []query {
	qs := make([]query, n)
	for i := range qs {
		kind := int8(prg.Intn(len(w.algos)))
		v := prg.Intn(w.n)
		q := query{kind: kind, u: int32(v), key: int64(kind)<<40 | int64(v)}
		if w.algos[kind] == "mis" {
			q.path = fmt.Sprintf("/vertex/mis?v=%d&prefetch=1", v)
		} else {
			q.path = fmt.Sprintf("/label/coloring?v=%d&prefetch=1", v)
		}
		qs[i] = q
	}
	return qs
}

// loopback is one handler served on a loopback port.
type loopback struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return lb, nil
}

// close stops the server and waits for its serving goroutine.
func (lb *loopback) close() {
	_ = lb.srv.Close()
	<-lb.done
}

// transport is a client transport of at most two connections per host.
func transport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
}

// servedEnv is the front handler, its servers, and the client.
type servedEnvImpl struct {
	front   *serve.Server
	handler http.Handler // the front handler as served (inside any middleware)
	lbs     []*loopback
	srcs    []source.Source
	client  *http.Client
	tr      *http.Transport
	rec     *recorder
	fleet   bool
	trips   *tripRecorder
}

// open starts the servers; traced, every handler is wrapped in the span
// middleware, every local source in a shim, and the front's shard
// client in the round-trip recorder.
func (w *served) open(rec *recorder) (pointEnv, error) {
	env := &servedEnvImpl{rec: rec, fleet: w.fleet(), tr: transport()}
	env.client = &http.Client{Transport: env.tr}
	var current atomic.Int64 // the traced front handler's span, for round trips
	var shardRT http.RoundTripper = transport()
	if rec != nil {
		env.trips = &tripRecorder{rec: rec, parent: &current, next: shardRT}
		shardRT = env.trips
	}
	wrapSource := func(src source.Source) (source.Source, *shim) {
		if rec == nil {
			return src, nil
		}
		sh := newShim(src)
		return sh, sh
	}
	var frontSrc source.Source
	spec := w.spec
	if w.fleet() {
		var remotes []source.Source
		var urls []string
		for i := 0; i < fleetShards; i++ {
			local, err := source.Parse(w.spec, w.lcaSeed)
			if err != nil {
				env.close()
				return nil, err
			}
			src, sh := wrapSource(local)
			var h http.Handler = serve.NewFromSource(src, w.spec, w.lcaSeed).Handler()
			if rec != nil {
				h = rec.middleware(layerShard, h, nil, sh)
			}
			lb, err := listen(h)
			if err != nil {
				env.close()
				return nil, err
			}
			env.lbs = append(env.lbs, lb)
			r, err := source.OpenRemote(lb.base, source.WithHTTPClient(&http.Client{Transport: shardRT, Timeout: 5 * time.Second}))
			if err != nil {
				env.close()
				return nil, err
			}
			remotes = append(remotes, r)
			urls = append(urls, "remote:"+lb.base)
		}
		sharded, err := source.NewSharded(remotes)
		if err != nil {
			env.close()
			return nil, err
		}
		env.srcs = append(env.srcs, sharded)
		frontSrc = sharded
		spec = "sharded:" + strings.Join(urls, ",")
		env.front = serve.NewFromSource(frontSrc, spec, w.lcaSeed)
		env.handler = env.front.Handler()
		if rec != nil {
			env.handler = rec.middleware(layerHandler, env.handler, &current, nil)
		}
	} else {
		local, err := source.Parse(w.spec, w.lcaSeed)
		if err != nil {
			return nil, err
		}
		src, sh := wrapSource(local)
		env.srcs = append(env.srcs, src)
		env.front = serve.NewFromSource(src, spec, w.lcaSeed,
			serve.WithTenants(serve.Tenant{Name: "bench", Token: tenantToken, ProbeBudget: 1 << 40}))
		env.handler = env.front.Handler()
		if rec != nil {
			env.handler = rec.middleware(layerHandler, env.handler, nil, sh)
		}
	}
	lb, err := listen(env.handler)
	if err != nil {
		env.close()
		return nil, err
	}
	env.lbs = append(env.lbs, lb)
	return env, nil
}

func (e *servedEnvImpl) frontBase() string { return e.lbs[len(e.lbs)-1].base }

func (e *servedEnvImpl) request(q *query, opID int64) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodGet, e.frontBase()+q.path, nil)
	if err != nil {
		return nil, err
	}
	if !e.fleet {
		req.Header.Set(serve.TokenHeader, tenantToken)
	}
	if opID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(opID, 10))
	}
	return req, nil
}

func (e *servedEnvImpl) do(_ int, q *query, s *sample) {
	req, err := e.request(q, s.opID)
	if err != nil {
		s.err = err.Error()
		return
	}
	resp, err := e.client.Do(req)
	if err != nil {
		s.err = err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		s.err = err.Error()
		return
	}
	s.respBytes = int64(len(body))
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		return
	}
	decodeAnswer(body, s)
}

func decodeAnswer(body []byte, s *sample) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		s.err = err.Error()
		return
	}
	if a.In == nil && a.Label == nil {
		s.err = "answer carries neither in nor label"
		return
	}
	s.ok, s.answer, s.probes, s.trips, s.remainders = true, a.value(), a.Probes, a.RoundTrips, a.Remainders
	s.pages, s.local = a.PageTouches, a.LocalHits
}

// wireResponseBytes returns the response bytes the front has read from
// its shards so far (traced fleet only).
func (e *servedEnvImpl) wireResponseBytes() int64 {
	if e.trips == nil {
		return 0
	}
	return e.trips.respBytes.Load()
}

func (e *servedEnvImpl) coalesced() uint64 {
	return e.front.Metrics().Counter("serve_coalesced_total").Value()
}

// handlerAllocs calls the front handler in process, without a socket,
// and returns allocations per request: everything the request causes,
// shard round trips included.
func (e *servedEnvImpl) handlerAllocs(qs []query) float64 {
	reqs := make([]*http.Request, len(qs))
	recs := make([]*httptest.ResponseRecorder, len(qs))
	for i := range qs {
		reqs[i] = httptest.NewRequest(http.MethodGet, qs[i].path, nil)
		if !e.fleet {
			reqs[i].Header.Set(serve.TokenHeader, tenantToken)
		}
		recs[i] = httptest.NewRecorder()
	}
	h := e.front.Handler()
	m0 := readRuntime()
	for i := range reqs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	m1 := readRuntime()
	return float64(m1.mallocs-m0.mallocs) / float64(max(len(qs), 1))
}

func (e *servedEnvImpl) close() {
	for i := len(e.lbs) - 1; i >= 0; i-- {
		e.lbs[i].close()
	}
	if e.front != nil {
		_ = e.front.Close()
	}
	for _, s := range e.srcs {
		if c, ok := s.(source.Closer); ok {
			_ = c.Close()
		}
	}
	e.tr.CloseIdleConnections()
}

// reference answers each distinct target once through a local Session
// over the same implicit spec, built fresh per query (serve builds an
// instance per request; a memoizing Session would under-count), and
// compares every sample with that target.
func (w *served) reference(samples []*sample) []string {
	byKey := map[int64][]*sample{}
	for _, s := range samples {
		if s.ok {
			byKey[s.q.key] = append(byKey[s.q.key], s)
		}
	}
	local, err := source.Parse(w.spec, w.lcaSeed)
	if err != nil {
		return []string{fmt.Sprintf("reference source: %v", err)}
	}
	keys := make([]int64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	var mu sync.Mutex
	var problems []string
	var wg sync.WaitGroup
	var next atomic.Int64
	for worker := 0; worker < 2; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				group := byKey[keys[i]]
				q := group[0].q
				val, probes, err := w.refQuery(local, q)
				mu.Lock()
				if err != nil {
					problems = append(problems, fmt.Sprintf("reference %s: %v", q.path, err))
				}
				for _, s := range group {
					if err == nil && (s.answer != val || s.probes != probes) {
						problems = append(problems, fmt.Sprintf("%s: answered %d with %d probes, reference %d with %d", q.path, s.answer, s.probes, val, probes))
						break
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(problems) > 10 {
		problems = append(problems[:10], fmt.Sprintf("... and %d more", len(problems)-10))
	}
	return problems
}

// algoNs answers q through a fresh local Session over a shim of the
// workload's spec and returns the call's time outside the source.
func (w *served) algoNs(q *query) int64 {
	if w.local == nil {
		w.local = newShim(mustParse(w.spec, w.lcaSeed))
	}
	w.local.flush()
	start := time.Now()
	_, _, _ = w.refQuery(w.local, q)
	took := time.Since(start)
	_, srcNs := w.local.flush()
	return int64(took) - srcNs
}

// refQuery answers q through a fresh Session over src.
func (w *served) refQuery(src source.Source, q *query) (int64, uint64, error) {
	sess := lca.NewSessionFromSource(src, lca.WithSeed(w.lcaSeed))
	algo := w.algos[q.kind]
	var val int64
	var err error
	switch algo {
	case "spanner3":
		var in bool
		in, err = sess.Edge(algo, int(q.u), int(q.v))
		val = b2i(in)
	case "mis":
		var in bool
		in, err = sess.Vertex(algo, int(q.u))
		val = b2i(in)
	case "coloring":
		var l int
		l, err = sess.Label(algo, int(q.u))
		val = int64(l)
	default:
		err = errors.New("unknown algorithm " + algo)
	}
	if err != nil {
		return 0, 0, err
	}
	st, err := sess.ProbeStats(algo)
	return val, st.Total(), err
}

// mustParse opens a spec the workload has already opened successfully.
func mustParse(spec string, seed rnd.Seed) source.Source {
	src, err := source.Parse(spec, seed)
	if err != nil {
		panic(fmt.Sprintf("reopening %s: %v", spec, err))
	}
	return src
}
