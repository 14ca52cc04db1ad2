package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"lca/internal/graph"
	"lca/internal/oracle"
)

// parityLCA keeps edges whose endpoint sum is even; probes one degree per
// endpoint so stats aggregation is observable.
type parityLCA struct {
	o *oracle.Counter
}

func newParityLCA(g *graph.Graph) *parityLCA {
	return &parityLCA{o: oracle.NewCounter(oracle.New(g))}
}

func (p *parityLCA) QueryEdge(u, v int) bool {
	p.o.Degree(u)
	p.o.Degree(v)
	return (u+v)%2 == 0
}

func (p *parityLCA) ProbeStats() oracle.Stats { return p.o.Stats() }

type oddVertexLCA struct{}

func (oddVertexLCA) QueryVertex(v int) bool { return v%2 == 1 }

func parallelTestGraph() *graph.Graph {
	b := graph.NewBuilder(200)
	for i := 0; i < 200; i++ {
		for j := 1; j <= 3; j++ {
			b.AddEdge(i, (i+j*7)%200)
		}
	}
	return b.Build()
}

func TestBuildSubgraphParallelMatchesSerial(t *testing.T) {
	g := parallelTestGraph()
	serial, serialStats := BuildSubgraph(g, newParityLCA(g))
	for _, workers := range []int{1, 2, 3, 8, 64} {
		par, parStats := BuildSubgraphParallel(g, func() EdgeLCA { return newParityLCA(g) }, workers)
		if par.M() != serial.M() {
			t.Fatalf("workers=%d: %d edges vs serial %d", workers, par.M(), serial.M())
		}
		for _, e := range serial.Edges() {
			if !par.HasEdge(e.U, e.V) {
				t.Fatalf("workers=%d: missing edge %v", workers, e)
			}
		}
		if parStats.Queries != serialStats.Queries {
			t.Fatalf("workers=%d: %d queries vs serial %d", workers, parStats.Queries, serialStats.Queries)
		}
		if parStats.SumTotal != serialStats.SumTotal {
			t.Fatalf("workers=%d: %d probes vs serial %d", workers, parStats.SumTotal, serialStats.SumTotal)
		}
		if parStats.MaxTotal != 2 {
			t.Fatalf("workers=%d: max per-query probes %d, want 2", workers, parStats.MaxTotal)
		}
	}
}

func TestBuildSubgraphParallelDefaultsWorkers(t *testing.T) {
	g := parallelTestGraph()
	par, _ := BuildSubgraphParallel(g, func() EdgeLCA { return newParityLCA(g) }, 0)
	serial, _ := BuildSubgraph(g, newParityLCA(g))
	if par.M() != serial.M() {
		t.Fatal("default worker count changed the result")
	}
}

func TestBuildSubgraphParallelMoreWorkersThanEdges(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	g := b.Build()
	par, stats := BuildSubgraphParallel(g, func() EdgeLCA { return newParityLCA(g) }, 16)
	if par.M() != 2 || stats.Queries != 2 {
		t.Fatalf("tiny graph: m=%d queries=%d", par.M(), stats.Queries)
	}
}

func TestBuildVertexSetParallelMatchesSerial(t *testing.T) {
	g := parallelTestGraph()
	serial, _ := BuildVertexSet(g, oddVertexLCA{})
	for _, workers := range []int{2, 5, 32} {
		par, stats := BuildVertexSetParallel(g, func() VertexLCA { return oddVertexLCA{} }, workers)
		if stats.Queries != g.N() {
			t.Fatalf("workers=%d: %d queries", workers, stats.Queries)
		}
		for v := range serial {
			if par[v] != serial[v] {
				t.Fatalf("workers=%d: disagreement at %d", workers, v)
			}
		}
	}
}

// budgetLCA spends one degree probe per query of any kind through a hard
// probe budget, so each worker of a build larger than the budget panics
// with oracle.ErrBudgetExceeded. attempts counts the probes tried across
// every instance.
type budgetLCA struct {
	o        *oracle.LimitOracle
	attempts *atomic.Int64
}

const testBudget = 10

func newBudgetLCA(g *graph.Graph, attempts *atomic.Int64) budgetLCA {
	return budgetLCA{oracle.NewLimit(oracle.New(g), testBudget), attempts}
}

func (b budgetLCA) probe(v int) int {
	b.attempts.Add(1)
	return b.o.Degree(v)
}

func (b budgetLCA) QueryEdge(u, v int) bool { return b.probe(u) > 0 }
func (b budgetLCA) QueryVertex(v int) bool  { return b.probe(v) > 0 }
func (b budgetLCA) QueryLabel(v int) int    { return b.probe(v) }

// wantBudgetPanic runs a parallel build whose every worker exhausts its
// budget, and requires the build to re-raise the budget error on this
// goroutine only after each worker has stopped: every worker tried its
// budget's worth of probes plus the one that panicked.
func wantBudgetPanic(t *testing.T, workers int, build func(attempts *atomic.Int64)) {
	t.Helper()
	var attempts atomic.Int64
	r := func() (r any) {
		defer func() { r = recover() }()
		build(&attempts)
		return nil
	}()
	be, ok := r.(oracle.ErrBudgetExceeded)
	if !ok || be.Budget != testBudget {
		t.Fatalf("build panicked with %v (%T), want oracle.ErrBudgetExceeded{%d}", r, r, testBudget)
	}
	if got, want := attempts.Load(), int64(workers*(testBudget+1)); got != want {
		t.Fatalf("%d probes tried when the build re-panicked, want %d: a worker was still running", got, want)
	}
}

func TestBuildSubgraphParallelReraisesWorkerPanic(t *testing.T) {
	g := parallelTestGraph()
	for _, workers := range []int{2, 3} {
		wantBudgetPanic(t, workers, func(attempts *atomic.Int64) {
			BuildSubgraphParallel(g, func() EdgeLCA { return newBudgetLCA(g, attempts) }, workers)
		})
	}
}

func TestBuildLabelsParallelReraisesWorkerPanic(t *testing.T) {
	g := parallelTestGraph()
	for _, workers := range []int{2, 3} {
		wantBudgetPanic(t, workers, func(attempts *atomic.Int64) {
			BuildLabelsParallel(g, func() LabelLCA { return newBudgetLCA(g, attempts) }, workers)
		})
	}
}

func TestBuildVertexSetParallelReraisesWorkerPanic(t *testing.T) {
	g := parallelTestGraph()
	for _, workers := range []int{2, 3} {
		wantBudgetPanic(t, workers, func(attempts *atomic.Int64) {
			BuildVertexSetParallel(g, func() VertexLCA { return newBudgetLCA(g, attempts) }, workers)
		})
	}
}

// rowLCA answers every kind of query by reading rows through its
// Counter, so each query costs probes and, over a row tier, row hits.
type rowLCA struct{ c *oracle.Counter }

func (r rowLCA) QueryEdge(u, v int) bool { return len(r.c.Neighbors(u)) <= len(r.c.Neighbors(v)) }
func (r rowLCA) QueryVertex(v int) bool  { return r.QueryLabel(v)%2 == 0 }
func (r rowLCA) QueryLabel(v int) int {
	s := 0
	for _, w := range r.c.Neighbors(v) {
		s += r.c.Degree(w)
	}
	return s
}
func (r rowLCA) ProbeStats() oracle.Stats { return r.c.Stats() }

// twoReads keeps the reference account of a rowLCA's queries in ref:
// ProbeStats read before and after every query, each delta folded by
// Observe.
type twoReads struct {
	rowLCA
	ref *QueryStats
}

func (t twoReads) account(query func()) {
	before := t.ProbeStats()
	query()
	t.ref.Observe(t.ProbeStats().Sub(before))
}

func (t twoReads) QueryEdge(u, v int) (in bool) {
	t.account(func() { in = t.rowLCA.QueryEdge(u, v) })
	return in
}

func (t twoReads) QueryVertex(v int) (in bool) {
	t.account(func() { in = t.rowLCA.QueryVertex(v) })
	return in
}

func (t twoReads) QueryLabel(v int) (label int) {
	t.account(func() { label = t.rowLCA.QueryLabel(v) })
	return label
}

// TestBuildStatsMatchTwoReadAccount: the build loops read ProbeStats
// once per query, and their QueryStats equal the account that reads it
// before and after every query, for edge, vertex and label builds at 1
// and 2 workers, over a plain graph and over chains sharing a row cache.
func TestBuildStatsMatchTwoReadAccount(t *testing.T) {
	g := parallelTestGraph()
	for _, cached := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			var rc *oracle.RowCache
			if cached {
				rc = oracle.NewRowCache(1024)
			}
			var mu sync.Mutex
			var refs []*QueryStats
			lca := func() twoReads {
				mu.Lock()
				defer mu.Unlock()
				refs = append(refs, new(QueryStats))
				return twoReads{rowLCA{oracle.NewCounter(oracle.NewChain(g, oracle.ChainConfig{RowCache: rc}))}, refs[len(refs)-1]}
			}
			check := func(kind string, got QueryStats) {
				t.Helper()
				var want QueryStats
				for _, r := range refs {
					want.Merge(*r)
				}
				refs = nil
				if got != want {
					t.Errorf("cached=%v workers=%d %s: stats %+v, two-read account %+v", cached, workers, kind, got, want)
				}
				if hits := got.ByKind.L1Hits + got.ByKind.L2Hits; got.SumTotal == 0 || cached != (hits > 0) {
					t.Errorf("cached=%v workers=%d %s: %d probes, %d row hits", cached, workers, kind, got.SumTotal, hits)
				}
			}
			_, qs := BuildSubgraphParallel(g, func() EdgeLCA { return lca() }, workers)
			check("edges", qs)
			_, qs = BuildVertexSetParallel(g, func() VertexLCA { return lca() }, workers)
			check("vertices", qs)
			_, qs = BuildLabelsParallel(g, func() LabelLCA { return lca() }, workers)
			check("labels", qs)
		}
	}
}
