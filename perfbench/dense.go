package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"lca"
	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/rnd"
	"lca/internal/source"
)

// spanner-dense: Theorem 1.1's dense regime. Two callers, each with its
// own lca.Session, share one mmap CSR source over a Gnp graph written in
// the order the generator emits it; callers alternate spanner3 and
// spanner5 queries on uniform edges.
//
// The callers take turns on one client goroutine. At GOMAXPROCS 1 two
// goroutines could only time-slice, and the runtime's 10 ms preemption
// slice, against tail queries of about 25 ms, made the p99 spread 33%
// over ten runs.
//
// The run does a fixed amount of work. The graph, the algorithms' seed and
// the multiset of query edges are part of the workload's definition;
// --seed orders the edges and deals them to the callers. Per-query cost
// is heavy-tailed (a few spanner5 queries probe 20-60 thousand cells
// against a median of about 600), so a sample drawn per seed, or a prefix
// cut by the clock, made throughput and the p99 move with the sample.
//
// At GOMAXPROCS 2, CSRMmap's shared locality counters bounce between the
// two vCPUs; that made two callers 2.5 times slower than at 1, and three
// runs on identical inputs spread 18% in throughput and 99% in p99, with
// the host's placement of the vCPUs.
const (
	denseN        = 20000
	denseAvgDeg   = 200
	denseCallers  = 2
	denseWarm     = 4 // warm-up queries per caller
	denseCheckOps = 24
	// denseRate sizes the query multiset: answers per second of run, both
	// callers together, on a two-vCPU machine.
	denseRate = 220

	denseGraphSeed = 2019
	denseLCASeed   = 2020
)

type dense struct {
	querySeed      rnd.Seed
	ops            int // queries per caller
	path           string
	g              *graph.Graph // generator output, until release
	measured, warm [][]query
	fixed          []query
}

func newDense(opt options) pointWorkload {
	return &dense{
		querySeed: rnd.Seed(opt.seed).Derive(3),
		ops:       max(int(opt.seconds*denseRate/denseCallers)&^1, 2), // even: callers alternate
		path:      filepath.Join(opt.outDir, "spanner-dense.csr"),
	}
}

func (w *dense) mix() []string { return []string{"spanner3", "spanner5"} }

func (w *dense) shape() shape {
	return shape{clients: 1, ops: w.ops * denseCallers}
}

func (w *dense) sizes() map[string]any {
	return map[string]any{"n": denseN, "avg_degree": denseAvgDeg, "callers": denseCallers, "source": "csr:?mmap=1",
		"graph_seed": denseGraphSeed, "lca_seed": denseLCASeed, "queries": w.ops * denseCallers}
}

func (w *dense) materialize() error {
	w.g = denseGraph()
	f, err := os.Create(w.path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := graph.WriteCSR(bw, w.g); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func denseGraph() *graph.Graph {
	return gen.Gnp(denseN, float64(denseAvgDeg)/float64(denseN-1), denseGraphSeed)
}

// edgeList samples n uniform edges for caller, alternating the two
// spanners.
func edgeList(g *graph.Graph, prg *rnd.PRG, caller int8, n int) []query {
	qs := make([]query, n)
	for i := range qs {
		u, v := g.RandomEdge(prg)
		qs[i] = query{kind: int8(i % 2), caller: caller, u: int32(u), v: int32(v), key: int64(i%2)<<62 | int64(u)<<31 | int64(v)}
		qs[i].path = fmt.Sprintf("%d-%d", u, v)
	}
	return qs
}

// generate builds the lists. The measured multiset and the warm-up lists
// are fixed, so every run's set-up and measured phase do the same work;
// the seed shuffles each spanner's queries and deals them to the callers
// in turn, so each caller still alternates the two. The transparency
// check's list is drawn from the seed.
func (w *dense) generate(float64) error {
	fixed := rnd.Seed(denseGraphSeed)
	pool := edgeList(w.g, rnd.NewPRG(fixed.Derive(10)), 0, w.ops*denseCallers)
	var byKind [2][]query
	for _, q := range pool {
		byKind[q.kind] = append(byKind[q.kind], q)
	}
	prg := rnd.NewPRG(w.querySeed)
	for _, qs := range byKind {
		prg.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	}
	var turns []query
	w.warm = make([][]query, denseCallers)
	for i := 0; i < w.ops; i++ {
		for c := 0; c < denseCallers; c++ {
			q := byKind[i%2][(i/2)*denseCallers+c]
			q.caller = int8(c)
			turns = append(turns, q)
		}
	}
	w.measured = [][]query{turns}
	for c := range w.warm {
		w.warm[c] = edgeList(w.g, rnd.NewPRG(fixed.Derive(uint64(20+c))), int8(c), denseWarm)
	}
	w.fixed = edgeList(w.g, rnd.NewPRG(w.querySeed.Derive(30)), 0, denseCheckOps)
	return nil
}

func (w *dense) lists() ([][]query, [][]query, []query) { return w.measured, w.warm, w.fixed }

func (w *dense) release() { w.g = nil }

// denseEnv is one mmap source and a Session per caller; traced, each
// caller's Session sits over its own shim of the shared source.
type denseEnv struct {
	src      source.Source
	sessions []*lca.Session
	shims    []*shim
	rec      *recorder
	mix      []string
}

func (w *dense) open(rec *recorder) (pointEnv, error) {
	src, err := source.Parse("csr:"+w.path+"?mmap=1", denseLCASeed)
	if err != nil {
		return nil, err
	}
	env := &denseEnv{src: src, rec: rec, mix: w.mix()}
	for c := 0; c < denseCallers; c++ {
		var s source.Source = src
		if rec != nil {
			sh := newShim(src)
			env.shims = append(env.shims, sh)
			s = sh
		}
		env.sessions = append(env.sessions, lca.NewSessionFromSource(s, lca.WithSeed(denseLCASeed)))
	}
	return env, nil
}

func (e *denseEnv) do(_ int, q *query, s *sample) {
	c := q.caller
	sess := e.sessions[c]
	algo := e.mix[q.kind]
	before, _ := sess.ProbeStats(algo)
	var start int64
	if e.rec != nil {
		e.shims[c].flush()
		start = e.rec.now()
	}
	in, err := sess.Edge(algo, int(q.u), int(q.v))
	if e.rec != nil {
		e.rec.addSource(e.shims[c], s.opID, start)
	}
	after, _ := sess.ProbeStats(algo)
	if err != nil {
		s.err = err.Error()
		return
	}
	d := after.Sub(before)
	s.ok, s.answer, s.probes = true, b2i(in), d.Total()
	s.pages, s.local = d.PageTouches, d.LocalHits
}

// close closes the sessions; they share one source, which the first
// Close releases (Close is idempotent).
func (e *denseEnv) close() {
	for _, s := range e.sessions {
		_ = s.Close()
	}
}

// reference regenerates the graph and answers every sample through a
// Session over the in-memory graph, one Session per caller.
func (w *dense) reference(samples []*sample) []string {
	g := denseGraph()
	mix := w.mix()
	type job struct{ samples []*sample }
	jobs := make([]job, denseCallers)
	for _, s := range samples {
		jobs[s.q.caller].samples = append(jobs[s.q.caller].samples, s)
	}
	problems := make([][]string, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for j := range jobs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ref := lca.NewSession(g, lca.WithSeed(denseLCASeed))
			for _, s := range jobs[j].samples {
				if !s.ok {
					continue
				}
				algo := mix[s.q.kind]
				before, _ := ref.ProbeStats(algo)
				in, err := ref.Edge(algo, int(s.q.u), int(s.q.v))
				after, _ := ref.ProbeStats(algo)
				probes := after.Sub(before).Total()
				switch {
				case err != nil:
					problems[j] = append(problems[j], fmt.Sprintf("reference %s(%d,%d): %v", algo, s.q.u, s.q.v, err))
				case b2i(in) != s.answer || probes != s.probes:
					problems[j] = append(problems[j], fmt.Sprintf("%s(%d,%d): answered %d with %d probes, reference %d with %d", algo, s.q.u, s.q.v, s.answer, s.probes, b2i(in), probes))
				}
				if len(problems[j]) > 5 {
					return
				}
			}
		}(j)
	}
	wg.Wait()
	var out []string
	for _, p := range problems {
		out = append(out, p...)
	}
	return out
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
