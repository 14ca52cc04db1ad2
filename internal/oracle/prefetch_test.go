package oracle

import (
	"fmt"
	"testing"

	"lca/internal/graph"
	"lca/internal/source"
)

// batchSource wraps a graph as a Source with the BatchProber,
// DegreeBounder and RoundTripCounter capabilities, counting one round
// trip per scalar probe and one per batch — a local stand-in for a
// remote shard with exact transport accounting.
type batchSource struct {
	g      *graph.Graph
	maxDeg int
	trips  uint64
	// failBatches makes ProbeBatch return an error, to test the panic
	// contract.
	failBatches bool
}

func newBatchSource(g *graph.Graph) *batchSource {
	return &batchSource{g: g, maxDeg: g.MaxDegree()}
}

func (b *batchSource) N() int { return b.g.N() }

func (b *batchSource) Degree(v int) int { b.trips++; return b.g.Degree(v) }

func (b *batchSource) Neighbor(v, i int) int { b.trips++; return b.g.Neighbor(v, i) }

func (b *batchSource) Adjacency(u, v int) int { b.trips++; return b.g.Adjacency(u, v) }

func (b *batchSource) MaxDegree() int { return b.maxDeg }

func (b *batchSource) RoundTrips() uint64 { return b.trips }

func (b *batchSource) ProbeBatch(probes []source.ProbeReq) ([]int, error) {
	if b.failBatches {
		return nil, fmt.Errorf("batch backend down")
	}
	b.trips++
	out := make([]int, len(probes))
	for i, p := range probes {
		switch p.Op {
		case source.OpDegree:
			out[i] = b.g.Degree(p.A)
		case source.OpNeighbor:
			out[i] = b.g.Neighbor(p.A, p.B)
		case source.OpAdjacency:
			out[i] = b.g.Adjacency(p.A, p.B)
		default:
			return nil, fmt.Errorf("unexpected op %q", p.Op)
		}
	}
	return out, nil
}

func TestPrefetchOracleAnswersMatchScalar(t *testing.T) {
	g := testGraph()
	p := NewPrefetch(newBatchSource(g))
	for v := 0; v < g.N(); v++ {
		row := p.Neighbors(v)
		if len(row) != g.Degree(v) {
			t.Fatalf("Neighbors(%d) has %d cells, Degree is %d", v, len(row), g.Degree(v))
		}
		if p.Degree(v) != g.Degree(v) {
			t.Fatalf("Degree(%d) mismatch after priming", v)
		}
		for i := 0; i <= g.Degree(v); i++ { // one past the end too
			if got, want := p.Neighbor(v, i), g.Neighbor(v, i); got != want {
				t.Fatalf("Neighbor(%d,%d) = %d, want %d", v, i, got, want)
			}
		}
		for w := 0; w < g.N(); w++ {
			if got, want := p.Adjacency(v, w), g.AdjacencyIndex(v, w); got != want {
				t.Fatalf("Adjacency(%d,%d) = %d, want %d", v, w, got, want)
			}
		}
	}
	if got := p.Adjacency(-1, 0); got != -1 {
		t.Fatalf("Adjacency(-1,0) = %d, want -1", got)
	}
}

func TestPrefetchOracleCollapsesRoundTrips(t *testing.T) {
	g := testGraph()
	src := newBatchSource(g)
	p := NewPrefetch(src)
	// Max degree fits the fetch width, so one hint over three vertices is
	// exactly one batch.
	before := src.RoundTrips()
	p.Prefetch(0, 1, 2)
	if trips := src.RoundTrips() - before; trips != 1 {
		t.Fatalf("Prefetch(0,1,2) cost %d round trips, want 1", trips)
	}
	// Every subsequent scalar probe of the primed rows is free.
	before = src.RoundTrips()
	for _, v := range []int{0, 1, 2} {
		d := p.Degree(v)
		for i := 0; i < d; i++ {
			p.Neighbor(v, i)
		}
		p.Adjacency(v, (v+1)%3)
	}
	if trips := src.RoundTrips() - before; trips != 0 {
		t.Fatalf("primed probes cost %d round trips, want 0", trips)
	}
	// Re-hinting primed rows fetches nothing.
	before = src.RoundTrips()
	p.Prefetch(0, 1, 2)
	if trips := src.RoundTrips() - before; trips != 0 {
		t.Fatalf("re-hint cost %d round trips, want 0", trips)
	}
	st := p.PrefetchStats()
	if st.Batches != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 batch and no misses", st)
	}
}

func TestPrefetchOracleSecondTripBeyondWidth(t *testing.T) {
	// A star: center degree 9 against fetch width 2 needs a remainder
	// fetch — two round trips, never one per cell.
	b := graph.NewBuilder(10)
	for v := 1; v < 10; v++ {
		b.AddEdge(0, v)
	}
	g := b.Build()
	src := newBatchSource(g)
	p := NewPrefetch(src, WithFetchWidth(2))
	before := src.RoundTrips()
	row := p.Neighbors(0)
	if trips := src.RoundTrips() - before; trips != 2 {
		t.Fatalf("wide row cost %d round trips, want 2", trips)
	}
	if len(row) != 9 {
		t.Fatalf("row has %d cells, want 9", len(row))
	}
	for i, w := range row {
		if w != g.Neighbor(0, i) {
			t.Fatalf("cell %d = %d, want %d", i, w, g.Neighbor(0, i))
		}
	}
}

func TestPrefetchOracleScalarFallback(t *testing.T) {
	// A plain graph has no batch capability: exploration must still
	// answer identically (scalar loops under the hood).
	g := testGraph()
	p := NewPrefetch(g)
	for v := 0; v < g.N(); v++ {
		row := p.Neighbors(v)
		if len(row) != g.Degree(v) {
			t.Fatalf("fallback Neighbors(%d) has %d cells, want %d", v, len(row), g.Degree(v))
		}
		for i, w := range row {
			if w != g.Neighbor(v, i) {
				t.Fatalf("fallback cell (%d,%d) = %d, want %d", v, i, w, g.Neighbor(v, i))
			}
		}
	}
	if measure(p).RoundTrips != 0 {
		t.Fatal("local fallback reported network round trips")
	}
}

func TestPrefetchOracleBatchFailurePanicsProbeError(t *testing.T) {
	src := newBatchSource(testGraph())
	src.failBatches = true
	p := NewPrefetch(src)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected *source.ProbeError panic")
		}
		if _, ok := r.(*source.ProbeError); !ok {
			t.Fatalf("unexpected panic payload %T: %v", r, r)
		}
	}()
	p.Neighbors(0)
}

func TestCounterExplorationAccounting(t *testing.T) {
	g := testGraph()
	c := NewCounter(New(g))
	row := c.Neighbors(0)
	s := c.Stats()
	// Exactly the scalar loop's account: one Degree plus one Neighbor per
	// cell, and one batch operation.
	if s.Degree != 1 || s.Neighbor != uint64(len(row)) || s.Batches != 1 {
		t.Fatalf("stats after Neighbors = %+v (row len %d)", s, len(row))
	}
	c.Prefetch(1, 2)
	s = c.Stats()
	if s.Total() != 1+uint64(len(row)) {
		t.Fatalf("Prefetch charged cell probes: %+v", s)
	}
	if s.Batches != 2 {
		t.Fatalf("Prefetch not counted as a batch: %+v", s)
	}
}

func TestCounterReportsRoundTrips(t *testing.T) {
	src := newBatchSource(testGraph())
	p := NewPrefetch(src)
	c := NewCounter(p)
	c.Neighbors(0)
	if rt := c.Stats().RoundTrips; rt != 1 {
		t.Fatalf("Stats().RoundTrips = %d, want 1", rt)
	}
	c.Reset()
	c.Neighbor(0, 0) // primed: free
	if rt := c.Stats().RoundTrips; rt != 0 {
		t.Fatalf("round trips after Reset and primed probe = %d, want 0", rt)
	}
}

func TestLimitOracleChargesExplorationPerCell(t *testing.T) {
	g := testGraph() // deg(0) = 2
	l := NewLimit(New(g), 3)
	if row := l.Neighbors(0); len(row) != 2 {
		t.Fatalf("row len %d, want 2", len(row))
	}
	if l.Used() != 3 {
		t.Fatalf("Used = %d after a 2-cell row, want 3 (degree + cells)", l.Used())
	}
	// The next row does not fit in the window: budget must fire.
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected ErrBudgetExceeded")
		} else if _, ok := r.(ErrBudgetExceeded); !ok {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	l.Neighbors(1)
}

func TestLimitOraclePrefetchIsFree(t *testing.T) {
	l := NewLimit(New(testGraph()), 1)
	l.Prefetch(0, 1, 2, 3)
	if l.Used() != 0 {
		t.Fatalf("Prefetch consumed budget: Used = %d", l.Used())
	}
}

func TestCachingOracleNeighborsMemoizes(t *testing.T) {
	src := newBatchSource(testGraph())
	c := NewCaching(src)
	first := c.Neighbors(0)
	before := src.RoundTrips()
	second := c.Neighbors(0)
	if src.RoundTrips() != before {
		t.Fatal("second Neighbors hit the backend")
	}
	if len(first) != len(second) {
		t.Fatalf("rows differ: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("rows differ at %d: %v vs %v", i, first, second)
		}
	}
	// The row also primed the scalar caches.
	before = src.RoundTrips()
	c.Degree(0)
	c.Neighbor(0, 0)
	c.Adjacency(0, first[0])
	if src.RoundTrips() != before {
		t.Fatal("scalar probes of a memoized row hit the backend")
	}
}

func TestRecorderNeighborsTracesCells(t *testing.T) {
	r := NewRecorder(New(testGraph()))
	row := r.Neighbors(0)
	tr := r.Trace()
	if len(tr) != 1+len(row) {
		t.Fatalf("trace has %d records, want %d", len(tr), 1+len(row))
	}
	if tr[0].Kind != KindDegree || tr[0].Answer != len(row) {
		t.Fatalf("first record = %+v, want the degree", tr[0])
	}
	for i, w := range row {
		rec := tr[1+i]
		if rec.Kind != KindNeighbor || rec.A != 0 || rec.B != i || rec.Answer != w {
			t.Fatalf("record %d = %+v, want Neighbor(0,%d)=%d", 1+i, rec, i, w)
		}
	}
}

func TestNeighborsHelperFallback(t *testing.T) {
	g := testGraph()
	for v := 0; v < g.N(); v++ {
		row := Neighbors(New(g), v)
		if len(row) != g.Degree(v) {
			t.Fatalf("helper row len %d, want %d", len(row), g.Degree(v))
		}
	}
	Prefetch(nil, 1, 2) // must not panic
	Prefetch(New(g))    // empty hint: no-op
}

func TestPrefetchOracleRowCapClears(t *testing.T) {
	src := newBatchSource(testGraph())
	p := NewPrefetch(src, WithRowCap(2))
	p.Prefetch(0)
	p.Prefetch(1)
	// The third row exceeds the cap: the cache clears and refills, and
	// answers stay correct throughout.
	p.Prefetch(2)
	if got := p.Degree(2); got != testGraph().Degree(2) {
		t.Fatalf("Degree(2) = %d after cap clear", got)
	}
}

func TestPrefetchOracleConcurrentProbing(t *testing.T) {
	// Concurrent explorers and scalar probers over one PrefetchOracle:
	// answers must stay correct under -race, and racing fetches of one
	// row are benign (identical copies).
	g := testGraph()
	p := NewPrefetch(newBatchSource(g))
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for it := 0; it < 200; it++ {
				v := (w + it) % g.N()
				row := p.Neighbors(v)
				if len(row) != g.Degree(v) {
					done <- fmt.Errorf("worker %d: Neighbors(%d) len %d, want %d", w, v, len(row), g.Degree(v))
					return
				}
				if d := p.Degree(v); d != g.Degree(v) {
					done <- fmt.Errorf("worker %d: Degree(%d) = %d", w, v, d)
					return
				}
				if g.Degree(v) > 0 {
					if got := p.Adjacency(v, row[0]); got != 0 {
						done <- fmt.Errorf("worker %d: Adjacency(%d,%d) = %d, want 0", w, v, row[0], got)
						return
					}
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
