package oracle

import (
	"testing"

	"lca/internal/graph"
	"lca/internal/trace"
)

// ascending is a DAG over any graph: v's children are its larger
// neighbors. It allocates nothing.
func ascending(v int, row []int) []int {
	for i, w := range row {
		if w > v {
			return row[i:]
		}
	}
	return nil
}

// TestExploreFetchesOneLevelPerBatch: over a row-fetching tier each level
// of the DAG is one Prefetch, hence one batch, and afterwards every DAG
// row is served from L1 with no trip. The levels are read back
// uncharged: the tier counts no hit for them.
func TestExploreFetchesOneLevelPerBatch(t *testing.T) {
	g := ringGraph(12) // the DAG from 0 has levels {0}, {1, 11}, {2}, …, {10}
	src := newBatchSource(g)
	tier := NewTiered(src, nil)
	Explore(tier, 0, ascending)
	if got := src.trips.Load(); got != 11 {
		t.Fatalf("the 11-level DAG of the ring took %d round trips, want one per level", got)
	}
	if hits := measure(tier).L1Hits; hits != 0 {
		t.Fatalf("Explore's read-back counted %d L1 hits, want none", hits)
	}
	for v := 0; v < g.N(); v++ {
		tier.Neighbors(v)
	}
	if got := src.trips.Load(); got != 11 {
		t.Fatalf("reading the explored rows cost %d more round trips", got-11)
	}

	src = newBatchSource(wideGraph(64)) // the DAG from 0 has levels {0}, {1, …, 63}
	Explore(NewTiered(src, nil), 0, ascending)
	if got := src.trips.Load(); got != 2 {
		t.Fatalf("the clique's two levels took %d round trips", got)
	}
}

// TestExploreCapsRows: one exploration fetches at most exploreCap rows,
// so it never fills the L1 store by itself.
func TestExploreCapsRows(t *testing.T) {
	n := exploreCap + 100
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v) // a star: the DAG from 0 has levels {0}, {1, …, n-1}
	}
	tier := NewTiered(newBatchSource(b.Build()), nil)
	Explore(tier, 0, ascending)
	if got := tier.l1.count; got != exploreCap {
		t.Fatalf("the exploration fetched %d rows, want the cap %d", got, exploreCap)
	}
}

// TestExploreInert: with no tier, over a local source, or under a probe
// budget, Explore returns at once, allocating nothing and fetching
// nothing.
func TestExploreInert(t *testing.T) {
	g := testGraph()
	budgeted := newBatchSource(g)
	for name, o := range map[string]Oracle{
		"no tier":      NewChain(g, ChainConfig{}),
		"traced":       NewChain(g, ChainConfig{Prefetch: true, Tracer: trace.New(trace.NewID(), trace.DefaultMaxSpans)}),
		"local source": NewChain(g, ChainConfig{Prefetch: true}),
		"probe budget": NewChain(budgeted, ChainConfig{Prefetch: true, ProbeBudget: 1 << 20}),
		"counter":      NewCounter(NewChain(g, ChainConfig{Prefetch: true})),
	} {
		if allocs := testing.AllocsPerRun(100, func() { Explore(o, 0, ascending) }); allocs != 0 {
			t.Errorf("%s: Explore allocated %.1f times per call", name, allocs)
		}
	}
	if trips := budgeted.trips.Load(); trips != 0 {
		t.Errorf("under a probe budget Explore fetched %d batches", trips)
	}
}
