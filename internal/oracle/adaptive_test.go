package oracle

// Tests for the learned fetch width: the degree-bound clamp regression,
// the estimator's bounds, convergence and determinism, the rowfull fast
// path through source.RowFetcher, and the chain walk that surfaces width
// and remainder trips in Stats. A batchSource whose reported degree
// bound undercuts its rows stands in for a static width.

import (
	"fmt"
	"testing"

	"lca/internal/graph"
	"lca/internal/source"
)

// noBoundSource strips the DegreeBounder capability off a batchSource so
// the learned-width estimator stays enabled (a reported bound at most
// MaxFetchWidth pins the width and disables learning).
type noBoundSource struct {
	b *batchSource
}

func (s *noBoundSource) N() int                 { return s.b.N() }
func (s *noBoundSource) Degree(v int) int       { return s.b.Degree(v) }
func (s *noBoundSource) Neighbor(v, i int) int  { return s.b.Neighbor(v, i) }
func (s *noBoundSource) Adjacency(u, v int) int { return s.b.Adjacency(u, v) }
func (s *noBoundSource) RoundTrips() uint64     { return s.b.RoundTrips() }
func (s *noBoundSource) ProbeBatch(probes []source.ProbeReq) ([]int, error) {
	return s.b.ProbeBatch(probes)
}

// rowSource answers full rows natively (the rowfull wire op's local
// stand-in), counting FetchRows calls.
type rowSource struct {
	g     *graph.Graph
	calls uint64
}

func (s *rowSource) N() int                 { return s.g.N() }
func (s *rowSource) Degree(v int) int       { return s.g.Degree(v) }
func (s *rowSource) Neighbor(v, i int) int  { return s.g.Neighbor(v, i) }
func (s *rowSource) Adjacency(u, v int) int { return s.g.Adjacency(u, v) }

func (s *rowSource) FetchRows(vs []int) ([][]int, error) {
	s.calls++
	rows := make([][]int, len(vs))
	for i, v := range vs {
		deg := s.g.Degree(v)
		row := make([]int, deg)
		for j := 0; j < deg; j++ {
			row[j] = s.g.Neighbor(v, j)
		}
		rows[i] = row
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

// TestPrefetchWidthClampRegression pins the degree-bound clamp: a source
// reporting an absurd max degree must not blow the speculative width (and
// with it every batch's allocation) past MaxFetchWidth.
func TestPrefetchWidthClampRegression(t *testing.T) {
	src := newBatchSource(testGraph())
	src.maxDeg = 1 << 30
	p := NewTiered(src, nil)
	if got := measure(p).FetchWidth; got != MaxFetchWidth {
		t.Fatalf("width under an absurd degree bound = %d, want the %d clamp", got, MaxFetchWidth)
	}
	// The clamped width must still answer correctly.
	row := p.Neighbors(0)
	if len(row) != src.g.Degree(0) {
		t.Fatalf("Neighbors(0) has %d cells, want %d", len(row), src.g.Degree(0))
	}
}

// TestAdaptiveWidthWithinBounds is the safety property: whatever degrees
// the estimator observes, the chosen width stays in [1, MaxFetchWidth].
func TestAdaptiveWidthWithinBounds(t *testing.T) {
	// Degrees spanning sparse to wide: a ring with a clique spliced in.
	b := graph.NewBuilder(300)
	for v := 0; v < 300; v++ {
		b.AddEdge(v, (v+1)%300)
	}
	for u := 0; u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	p := NewTiered(&noBoundSource{b: newBatchSource(g)}, nil)
	for v := 0; v < g.N(); v++ {
		p.Prefetch(v)
		if w := measure(p).FetchWidth; w < 1 || w > MaxFetchWidth {
			t.Fatalf("after observing %d rows the width is %d, outside [1, %d]", v+1, w, MaxFetchWidth)
		}
	}
}

// TestAdaptiveWidthConvergesOnRing is the convergence property: on
// constant-degree rows the learned width settles on exactly that degree
// and remainder trips never occur.
func TestAdaptiveWidthConvergesOnRing(t *testing.T) {
	g := ringGraph(200)
	src := &noBoundSource{b: newBatchSource(g)}
	p := NewTiered(src, nil)
	if got := measure(p).FetchWidth; got != DefaultFetchWidth {
		t.Fatalf("unbounded source starts at width %d, want DefaultFetchWidth %d", got, DefaultFetchWidth)
	}
	for v := 0; v < 100; v++ {
		p.Prefetch(v)
	}
	if got := measure(p).FetchWidth; got != 2 {
		t.Fatalf("width after 100 degree-2 rows = %d, want 2", got)
	}
	// Converged width exactly covers the rows: one batch per hint, no
	// remainder, and answers identical to the graph.
	before := src.RoundTrips()
	for v := 100; v < 150; v++ {
		p.Prefetch(v)
	}
	if trips := src.RoundTrips() - before; trips != 50 {
		t.Fatalf("50 converged hints cost %d trips, want 50", trips)
	}
	if rem := measure(p).RemainderTrips; rem != 0 {
		t.Fatalf("constant-degree rows paid %d remainder trips, want 0", rem)
	}
	for v := 0; v < 150; v++ {
		row := p.Neighbors(v)
		if len(row) != 2 || row[0] != g.Neighbor(v, 0) || row[1] != g.Neighbor(v, 1) {
			t.Fatalf("Neighbors(%d) = %v diverged from the graph", v, row)
		}
	}
}

// TestAdaptiveWidthBeatsStaticOnWideRows: on rows wider than the static
// default the learner grows the width and stops paying remainder trips,
// strictly beating the static baseline.
func TestAdaptiveWidthBeatsStaticOnWideRows(t *testing.T) {
	g := wideGraph(101) // every degree is 100, above the static 64
	const rows = 40

	static := NewTiered(&batchSource{g: g, maxDeg: DefaultFetchWidth}, nil)
	for v := 0; v < rows; v++ {
		static.Prefetch(v)
	}
	staticRem := measure(static).RemainderTrips
	if staticRem != rows {
		t.Fatalf("static width paid %d remainder trips over %d wide rows, want one each", staticRem, rows)
	}

	adaptive := NewTiered(&noBoundSource{b: newBatchSource(g)}, nil)
	for v := 0; v < rows; v++ {
		adaptive.Prefetch(v)
	}
	adaptiveRem := measure(adaptive).RemainderTrips
	if adaptiveRem >= staticRem {
		t.Fatalf("adaptive width paid %d remainder trips, static paid %d; learning must strictly reduce them", adaptiveRem, staticRem)
	}
	if w := measure(adaptive).FetchWidth; w < 100 {
		t.Fatalf("width after observing degree-100 rows = %d, want at least 100", w)
	}
	// Once converged, further wide rows are remainder-free.
	before := measure(adaptive).RemainderTrips
	for v := rows; v < rows+20; v++ {
		adaptive.Prefetch(v)
	}
	if got := measure(adaptive).RemainderTrips - before; got != 0 {
		t.Fatalf("converged learner still paid %d remainder trips", got)
	}
	// And the answers never depended on the width.
	for v := 0; v < rows+20; v++ {
		row := adaptive.Neighbors(v)
		if len(row) != 100 {
			t.Fatalf("Neighbors(%d) has %d cells, want 100", v, len(row))
		}
		for j, w := range row {
			if want := g.Neighbor(v, j); w != want {
				t.Fatalf("Neighbors(%d)[%d] = %d, want %d", v, j, w, want)
			}
		}
	}
}

// TestAdaptiveWidthProbeCountsMatchStatic: probe accounting charges the
// cells the algorithm reads, so tuning the width must leave Counter
// totals byte-for-byte identical to a static-width run.
func TestAdaptiveWidthProbeCountsMatchStatic(t *testing.T) {
	g := wideGraph(30)
	run := func(p *TieredOracle) (Stats, string) {
		c := NewCounter(p)
		out := ""
		for v := 0; v < g.N(); v++ {
			out += fmt.Sprint(c.Neighbors(v), c.Degree(v), c.Adjacency(v, (v+1)%g.N()))
		}
		return c.Stats(), out
	}
	sStatic, outStatic := run(NewTiered(&batchSource{g: g, maxDeg: 8}, nil))
	sAdaptive, outAdaptive := run(NewTiered(&noBoundSource{b: newBatchSource(g)}, nil))
	if outStatic != outAdaptive {
		t.Fatal("answers diverged between static and adaptive widths")
	}
	if sStatic.Total() != sAdaptive.Total() {
		t.Fatalf("probe totals diverged: static %d, adaptive %d — width tuning may only change batching", sStatic.Total(), sAdaptive.Total())
	}
	if sStatic.Neighbor != sAdaptive.Neighbor || sStatic.Degree != sAdaptive.Degree || sStatic.Adjacency != sAdaptive.Adjacency {
		t.Fatalf("per-kind probe counts diverged: static %+v, adaptive %+v", sStatic, sAdaptive)
	}
}

// TestPrefetchUsesRowFetcher pins the rowfull fast path: a backend
// answering full rows natively serves any hint in one call with zero
// remainder trips, whatever the degrees.
func TestPrefetchUsesRowFetcher(t *testing.T) {
	g := wideGraph(80) // degree 79, above the default width
	src := &rowSource{g: g}
	p := NewTiered(src, nil)
	p.Prefetch(0, 1, 2, 3, 4)
	if src.calls != 1 {
		t.Fatalf("hint over 5 wide rows cost %d FetchRows calls, want 1", src.calls)
	}
	if rem := measure(p).RemainderTrips; rem != 0 {
		t.Fatalf("rowfull path paid %d remainder trips, want 0", rem)
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
	before := src.calls
	p.Prefetch(0, 1, 2)
	if src.calls != before {
		t.Fatalf("re-hinting primed rows cost %d extra FetchRows calls", src.calls-before)
	}
}

// TestPrefetchTelemetryThroughCounter walks the wrapper chain: width and
// remainder trips must stay visible through Limit and Counter.
func TestPrefetchTelemetryThroughCounter(t *testing.T) {
	g := wideGraph(101)
	p := NewTiered(&batchSource{g: g, maxDeg: DefaultFetchWidth}, nil)
	c := NewCounter(NewLimit(p, 1<<40))
	for v := 0; v < 10; v++ {
		c.Neighbors(v)
	}
	st := c.Stats()
	if st.RemainderTrips == 0 {
		t.Fatal("wide rows behind a static width reported zero remainder trips through the chain")
	}
	if st.FetchWidth != DefaultFetchWidth {
		t.Fatalf("Stats.FetchWidth = %d through the chain, want %d", st.FetchWidth, DefaultFetchWidth)
	}
	// Reset rebaselines the counter's remainder window.
	c.Reset()
	if st := c.Stats(); st.RemainderTrips != 0 {
		t.Fatalf("after Reset the counter still reports %d remainder trips", st.RemainderTrips)
	}
}

// TestAdaptiveWidthFollowsCallerOrder: the learned width is a function
// of the rows a hint lists, in the order it lists them — not of map
// iteration order. One 16-row hint of a degree-100 hub and 15 leaves
// must learn the same width on every run.
func TestAdaptiveWidthFollowsCallerOrder(t *testing.T) {
	b := graph.NewBuilder(101)
	for v := 1; v <= 100; v++ {
		b.AddEdge(0, v)
	}
	g := b.Build()
	vs := make([]int, 16) // the hub, then leaves 1..15
	for i := range vs {
		vs[i] = i
	}
	widths := map[uint64]int{}
	for run := 0; run < 64; run++ {
		p := NewTiered(&noBoundSource{b: newBatchSource(g)}, nil)
		p.Prefetch(vs...)
		widths[measure(p).FetchWidth]++
	}
	if len(widths) != 1 {
		t.Fatalf("one hint learned different widths across runs: %v", widths)
	}
}

// measure reads o's chain telemetry the way a Counter above it would.
func measure(o Oracle) Telemetry {
	if m := newChainMeter(o); m != nil {
		return *m.read()
	}
	return Telemetry{}
}
