package oracle

// Tests of the row tier's exploration path: fetched rows, the scalar
// fallback, failure panics, the L1 bound and concurrent probers, over a
// local stand-in for a network shard.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"lca/internal/graph"
	"lca/internal/source"
)

// batchSource wraps a graph as a Source with the RowFetcher and
// RoundTripCounter capabilities, counting one round trip per scalar
// probe and one per batch of rows — a local stand-in for a remote shard
// with exact transport accounting. The trip counter is atomic because
// concurrent-probing tests share one fake.
type batchSource struct {
	g     *graph.Graph
	trips atomic.Uint64
	// failRows makes FetchRows return an error, to test the panic
	// contract.
	failRows bool
}

func newBatchSource(g *graph.Graph) *batchSource { return &batchSource{g: g} }

func (b *batchSource) N() int { return b.g.N() }

func (b *batchSource) Degree(v int) int { b.trips.Add(1); return b.g.Degree(v) }

func (b *batchSource) Neighbor(v, i int) int { b.trips.Add(1); return b.g.Neighbor(v, i) }

func (b *batchSource) Adjacency(u, v int) int { b.trips.Add(1); return b.g.Adjacency(u, v) }

func (b *batchSource) RoundTrips() uint64 { return b.trips.Load() }

func (b *batchSource) FetchRows(vs []int) ([][]int, error) {
	if b.failRows {
		return nil, fmt.Errorf("row backend down")
	}
	b.trips.Add(1)
	rows := make([][]int, len(vs))
	for i, v := range vs {
		rows[i] = make([]int, b.g.Degree(v))
		for j := range rows[i] {
			rows[i][j] = b.g.Neighbor(v, j)
		}
	}
	return rows, nil
}

// ringGraph builds an n-cycle: every row has degree exactly 2.
func ringGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.Build()
}

// wideGraph builds a clique over n vertices: every row has degree n-1.
func wideGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// measure reads o's chain telemetry the way a Counter above it would.
func measure(o Oracle) Telemetry {
	if m := newChainMeter(o); m != nil {
		return *m.read()
	}
	return Telemetry{}
}

func TestPrefetchOracleAnswersMatchScalar(t *testing.T) {
	g := testGraph()
	p := NewTiered(newBatchSource(g), nil)
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
	p := NewTiered(src, nil)
	// One hint over three vertices is exactly one batch of rows.
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
	if trips := src.RoundTrips(); trips != 1 {
		t.Fatalf("the whole exchange cost %d round trips, want the one batch", trips)
	}
}

// TestTieredOracleScalarMissFetchesRow: a scalar probe that misses
// fetches its whole row in one round trip, exactly as an exploration
// would, so the row's other cells are free afterwards.
func TestTieredOracleScalarMissFetchesRow(t *testing.T) {
	g := testGraph()
	src := newBatchSource(g)
	p := NewTiered(src, nil)
	if got, want := p.Neighbor(1, 0), g.Neighbor(1, 0); got != want {
		t.Fatalf("Neighbor(1,0) = %d, want %d", got, want)
	}
	if trips := src.RoundTrips(); trips != 1 {
		t.Fatalf("scalar miss cost %d round trips, want 1", trips)
	}
	for i := 0; i <= g.Degree(1); i++ {
		if got, want := p.Neighbor(1, i), g.Neighbor(1, i); got != want {
			t.Fatalf("Neighbor(1,%d) = %d, want %d", i, got, want)
		}
	}
	if p.Degree(1) != g.Degree(1) || src.RoundTrips() != 1 {
		t.Fatalf("the rest of the row was not served from L1: %d round trips", src.RoundTrips())
	}
}

func TestPrefetchOracleScalarFallback(t *testing.T) {
	// A plain graph has no row capability: exploration must still
	// answer identically (scalar loops under the hood).
	g := testGraph()
	p := NewTiered(g, nil)
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

// shortRows answers every batch of rows with one row too few.
type shortRows struct{ *batchSource }

func (s shortRows) FetchRows(vs []int) ([][]int, error) {
	rows, err := s.batchSource.FetchRows(vs)
	return rows[:len(rows)-1], err
}

func TestPrefetchOracleBatchFailurePanicsProbeError(t *testing.T) {
	failing := newBatchSource(testGraph())
	failing.failRows = true
	for name, src := range map[string]source.Source{
		"failing": failing,
		"short":   shortRows{newBatchSource(testGraph())},
	} {
		p := NewTiered(src, nil)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: expected *source.ProbeError panic", name)
				}
				if _, ok := r.(*source.ProbeError); !ok {
					t.Fatalf("%s: unexpected panic payload %T: %v", name, r, r)
				}
			}()
			p.Prefetch(0, 1)
		}()
	}
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
	c := NewCounter(NewTiered(src, nil))
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

func TestNeighborsHelperFallback(t *testing.T) {
	g := testGraph()
	for v := 0; v < g.N(); v++ {
		// The graph itself explores; hide that to run the scalar loop.
		row := Neighbors(scalarOnly{g}, v)
		if len(row) != g.Degree(v) {
			t.Fatalf("helper row len %d, want %d", len(row), g.Degree(v))
		}
	}
	Prefetch(nil, 1, 2) // must not panic
	Prefetch(New(g))    // empty hint: no-op
}

func TestPrefetchOracleRowCapClears(t *testing.T) {
	src := newBatchSource(testGraph())
	p := NewTiered(src, nil)
	p.l1.limit = 2
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
	// Concurrent explorers and scalar probers over one tier: answers must
	// stay correct under -race, with misses serialized by the tier.
	g := testGraph()
	p := NewTiered(newBatchSource(g), nil)
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

// TestPrefetchUsesRowFetcher pins the rowfull path: a backend answering
// full rows natively serves any hint in one call, whatever the degrees.
func TestPrefetchUsesRowFetcher(t *testing.T) {
	g := wideGraph(80)
	src := newBatchSource(g)
	p := NewTiered(src, nil)
	p.Prefetch(0, 1, 2, 3, 4)
	if trips := src.RoundTrips(); trips != 1 {
		t.Fatalf("hint over 5 wide rows cost %d round trips, want 1", trips)
	}
	for v := 0; v < 5; v++ {
		row := p.Neighbors(v)
		if len(row) != 79 {
			t.Fatalf("Neighbors(%d) has %d cells, want 79", v, len(row))
		}
		for j, w := range row {
			if want := g.Neighbor(v, j); w != want {
				t.Fatalf("Neighbors(%d)[%d] = %d, want %d", v, j, w, want)
			}
		}
	}
	// The primed rows answer later hints and probes without new calls.
	p.Prefetch(0, 1, 2)
	if trips := src.RoundTrips(); trips != 1 {
		t.Fatalf("re-hinting primed rows cost %d extra round trips", trips-1)
	}
}

// TestPrefetchTelemetryThroughCounter walks the wrapper chain: the
// tier's hits and the source's round trips must stay visible through
// Limit and Counter, and Reset rebaselines both.
func TestPrefetchTelemetryThroughCounter(t *testing.T) {
	p := NewTiered(newBatchSource(wideGraph(101)), nil)
	c := NewCounter(NewLimit(p, 1<<40))
	for pass := 0; pass < 2; pass++ {
		for v := 0; v < 10; v++ {
			c.Neighbors(v)
		}
	}
	if st := c.Stats(); st.RoundTrips != 10 || st.L1Hits != 10 {
		t.Fatalf("two passes over 10 rows read %d round trips and %d L1 hits through the chain, want 10 and 10",
			st.RoundTrips, st.L1Hits)
	}
	c.Reset()
	if st := c.Stats(); st.RoundTrips != 0 || st.L1Hits != 0 {
		t.Fatalf("after Reset the counter still reports %+v", st.Telemetry)
	}
}
