package graph

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"lca/internal/rnd"
)

func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

func complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

func randomGraph(n int, p float64, seed rnd.Seed) *Graph {
	prg := rnd.NewPRG(seed)
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if prg.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.BuildShuffled(rnd.NewPRG(seed.Derive(1)))
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(2, 2) // self-loop, dropped
	b.AddEdge(2, 3)
	if b.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", b.NumEdges())
	}
	g := b.Build()
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d, want 4, 2", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(2, 3) {
		t.Fatal("missing expected edges")
	}
	if g.HasEdge(0, 2) || g.HasEdge(2, 2) {
		t.Fatal("unexpected edges present")
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range edge")
		}
	}()
	NewBuilder(3).AddEdge(0, 3)
}

// TestBuilderHasEdgeOutOfRange: IDs outside [0,n) name no added edge,
// even those whose low 32 bits match an added endpoint.
func TestBuilderHasEdgeOutOfRange(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	if !b.HasEdge(0, 1) || !b.HasEdge(1, 0) {
		t.Fatal("added edge (0,1) not reported")
	}
	for _, e := range [][2]int{{0, 1<<32 + 1}, {-1 << 32, 1}, {1<<32 + 0, 1}, {0, -1}, {4, 1}} {
		if b.HasEdge(e[0], e[1]) {
			t.Errorf("HasEdge(%d,%d) = true for an out-of-range ID", e[0], e[1])
		}
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := path(5)
	wantDeg := []int{1, 2, 2, 2, 1}
	for v, d := range wantDeg {
		if g.Degree(v) != d {
			t.Errorf("Degree(%d) = %d, want %d", v, g.Degree(v), d)
		}
	}
	if g.Neighbor(0, 0) != 1 || g.Neighbor(0, 1) != -1 || g.Neighbor(0, -1) != -1 {
		t.Error("Neighbor probe semantics broken at endpoint")
	}
}

// TestNeighborsSharedRows: Neighbors hands out the graph's own rows,
// clipped so that an append copies the row instead of overwriting the
// next one, including around zero-degree rows; the zero-value Graph is
// the empty graph.
func TestNeighborsSharedRows(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(0, 4)
	b.AddEdge(3, 4) // 2 and 5 are isolated
	g := b.BuildShuffled(rnd.NewPRG(1))
	want := make([][]int, g.N())
	for v := range want {
		want[v] = append([]int(nil), g.Neighbors(v)...)
	}
	for v := 0; v < g.N(); v++ {
		row := g.Neighbors(v)
		if len(row) != g.Degree(v) || cap(row) != len(row) {
			t.Fatalf("row %d: len %d cap %d, degree %d", v, len(row), cap(row), g.Degree(v))
		}
		_ = append(row, -1)
		for u := range want {
			if got := g.Neighbors(u); !slices.Equal(got, want[u]) {
				t.Fatalf("append to row %d: row %d = %v, want %v", v, u, got, want[u])
			}
		}
	}
	var z Graph
	if z.N() != 0 || z.M() != 0 || z.MaxDegree() != 0 || z.MinDegree() != 0 || len(z.Edges()) != 0 || !z.IsConnected() {
		t.Fatalf("zero-value Graph: n=%d m=%d degrees [%d,%d] edges %v", z.N(), z.M(), z.MinDegree(), z.MaxDegree(), z.Edges())
	}
	if e := NewBuilder(0).Build(); e.N() != 0 || e.M() != 0 {
		t.Fatalf("empty build: n=%d m=%d", e.N(), e.M())
	}
}

func TestAdjacencyIndexInverse(t *testing.T) {
	for seed := rnd.Seed(0); seed < 5; seed++ {
		g := randomGraph(40, 0.2, seed)
		for v := 0; v < g.N(); v++ {
			for i := 0; i < g.Degree(v); i++ {
				w := g.Neighbor(v, i)
				if got := g.AdjacencyIndex(v, w); got != i {
					t.Fatalf("seed %d: AdjacencyIndex(%d,%d) = %d, want %d", seed, v, w, got, i)
				}
			}
		}
		// Non-edges must answer -1.
		for v := 0; v < g.N(); v++ {
			for w := 0; w < g.N(); w++ {
				if v != w && !g.HasEdge(v, w) && g.AdjacencyIndex(v, w) != -1 {
					t.Fatalf("AdjacencyIndex on non-edge (%d,%d) != -1", v, w)
				}
			}
		}
	}
}

// TestAdjacencyOutOfRange: an ID outside [0, n) is never an endpoint,
// including one whose low 32 bits name a real vertex, on a sorted build,
// a shuffled build and the zero Graph.
func TestAdjacencyOutOfRange(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	for name, g := range map[string]*Graph{"sorted": b.Build(), "shuffled": b.BuildShuffled(rnd.NewPRG(1)), "zero": {}} {
		n := g.N()
		bad := []int{-1, n, 1 << 32, 1<<32 + 1, -(1 << 32)}
		ids := slices.Clone(bad)
		for v := range n {
			ids = append(ids, v)
		}
		for _, x := range bad {
			for _, y := range ids {
				for _, p := range [][2]int{{x, y}, {y, x}} {
					if g.AdjacencyIndex(p[0], p[1]) != -1 || g.Adjacency(p[0], p[1]) != -1 || g.HasEdge(p[0], p[1]) {
						t.Errorf("%s: (%d,%d) answers as an edge: index %d, has %v",
							name, p[0], p[1], g.AdjacencyIndex(p[0], p[1]), g.HasEdge(p[0], p[1]))
					}
				}
			}
		}
	}
}

// TestGraphResidentBytes pins what a built graph keeps live once its
// Builder is gone: its rows (8 B per cell) and offsets (8 B per vertex),
// with a byte of slack on each, and no per-pair index beside them. It
// also reads the graph back from its CSR file, as ReadCSR and
// source.Materialize do, adding every edge from both endpoints, which
// the Builder must not keep twice. No test in this package runs in
// parallel, so the heap's growth is the graph's own.
func TestGraphResidentBytes(t *testing.T) {
	const n, deg = 100_000, 8
	var ms runtime.MemStats
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	twice := func() *Graph {
		var buf bytes.Buffer
		if err := WriteCSR(&buf, shuffledGraph(n, deg, 1)); err != nil {
			t.Fatal(err)
		}
		g, err := ReadCSR(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, c := range []struct {
		name  string
		build func() *Graph
	}{
		{"added once", func() *Graph { return shuffledGraph(n, deg, 1) }},
		{"added from both endpoints", twice},
	} {
		before := live()
		g := c.build()
		grown := live() - before
		cells := int64(2 * g.M())
		t.Logf("%s: %.1f B per cell", c.name, float64(grown)/float64(cells))
		if limit := 9*cells + 9*n; grown > limit {
			t.Errorf("%s: graph on %d vertices and %d cells keeps %d B live, want at most %d (%.1f B per cell)",
				c.name, n, cells, grown, limit, float64(grown)/float64(cells))
		}
	}
}

func TestQuickAdjacencySymmetric(t *testing.T) {
	g := randomGraph(60, 0.15, 99)
	err := quick.Check(func(a, b uint16) bool {
		u, v := int(a)%g.N(), int(b)%g.N()
		return g.HasEdge(u, v) == g.HasEdge(v, u)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestEdgesCanonicalSorted(t *testing.T) {
	g := randomGraph(30, 0.3, 7)
	edges := g.Edges()
	if len(edges) != g.M() {
		t.Fatalf("Edges count %d != M %d", len(edges), g.M())
	}
	for i, e := range edges {
		if e.U >= e.V {
			t.Fatalf("edge %v not canonical", e)
		}
		if i > 0 {
			p := edges[i-1]
			if p.U > e.U || (p.U == e.U && p.V >= e.V) {
				t.Fatalf("edges not sorted: %v before %v", p, e)
			}
		}
	}
}

func TestShuffledBuildSameEdgeSet(t *testing.T) {
	b := NewBuilder(20)
	prg := rnd.NewPRG(3)
	for i := 0; i < 60; i++ {
		b.AddEdge(prg.Intn(20), prg.Intn(20))
	}
	sorted := b.Build()
	shuffled := b.BuildShuffled(rnd.NewPRG(4))
	if sorted.M() != shuffled.M() {
		t.Fatalf("edge counts differ: %d vs %d", sorted.M(), shuffled.M())
	}
	for _, e := range sorted.Edges() {
		if !shuffled.HasEdge(e.U, e.V) {
			t.Fatalf("shuffled build lost edge %v", e)
		}
	}
	// And the adjacency index must still be a correct inverse.
	for v := 0; v < shuffled.N(); v++ {
		for i := 0; i < shuffled.Degree(v); i++ {
			if shuffled.AdjacencyIndex(v, shuffled.Neighbor(v, i)) != i {
				t.Fatal("adjacency index broken after shuffle")
			}
		}
	}
}

func TestDist(t *testing.T) {
	g := path(6)
	cases := []struct{ u, v, maxDepth, want int }{
		{0, 5, -1, 5},
		{0, 5, 4, -1},
		{0, 5, 5, 5},
		{2, 2, -1, 0},
		{0, 3, -1, 3},
	}
	for _, c := range cases {
		if got := g.Dist(c.u, c.v, c.maxDepth); got != c.want {
			t.Errorf("Dist(%d,%d,%d) = %d, want %d", c.u, c.v, c.maxDepth, got, c.want)
		}
	}
	two := FromEdges(4, []Edge{{0, 1}, {2, 3}})
	if two.Dist(0, 3, -1) != -1 {
		t.Error("cross-component distance should be -1")
	}
}

func TestDistAgainstFloydWarshall(t *testing.T) {
	g := randomGraph(25, 0.15, 11)
	n := g.N()
	const inf = 1 << 29
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			if i == j {
				d[i][j] = 0
			} else if g.HasEdge(i, j) {
				d[i][j] = 1
			} else {
				d[i][j] = inf
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := d[i][j]
			if want == inf {
				want = -1
			}
			if got := g.Dist(i, j, -1); got != want {
				t.Fatalf("Dist(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestBFSWithin(t *testing.T) {
	g := cycle(10)
	order, dist := g.BFSWithin(0, 2)
	if len(order) != 5 { // 0, two at distance 1, two at distance 2
		t.Fatalf("BFSWithin found %d vertices, want 5", len(order))
	}
	for _, v := range order {
		if dist[v] > 2 {
			t.Fatalf("vertex %d at distance %d exceeds radius", v, dist[v])
		}
	}
	if order[0] != 0 || dist[0] != 0 {
		t.Fatal("BFS must start at the source")
	}
	// Discovery order must be non-decreasing in distance.
	for i := 1; i < len(order); i++ {
		if dist[order[i]] < dist[order[i-1]] {
			t.Fatal("BFS discovery order not level by level")
		}
	}
}

func TestComponents(t *testing.T) {
	g := FromEdges(7, []Edge{{0, 1}, {1, 2}, {3, 4}})
	comp, count := g.Components()
	if count != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("count = %d, want 4", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] || comp[3] != comp[4] {
		t.Error("component assignments wrong")
	}
	if comp[0] == comp[3] || comp[5] == comp[6] {
		t.Error("distinct components merged")
	}
	if !complete(5).IsConnected() {
		t.Error("K5 should be connected")
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestSameComponents(t *testing.T) {
	g := cycle(8)
	spanning := FromEdges(8, g.Edges()[:7]) // drop one cycle edge
	if !SameComponents(g, spanning) {
		t.Error("spanning tree should preserve components")
	}
	broken := FromEdges(8, g.Edges()[:6])
	if SameComponents(g, broken) {
		t.Error("six edges of an 8-cycle cannot span it")
	}
}

func TestAllDistancesFrom(t *testing.T) {
	g := path(5)
	d := g.AllDistancesFrom(2)
	want := []int{2, 1, 0, 1, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("AllDistancesFrom(2)[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestSubgraph(t *testing.T) {
	g := complete(5)
	h := g.Subgraph([]Edge{{0, 1}, {1, 2}})
	if h.M() != 2 || h.N() != 5 {
		t.Fatalf("subgraph n=%d m=%d", h.N(), h.M())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for foreign edge")
		}
	}()
	path(3).Subgraph([]Edge{{0, 2}})
}

func TestEdgeSet(t *testing.T) {
	s := NewEdgeSet()
	s.Add(3, 1)
	s.Add(1, 3) // same edge
	s.Add(0, 2)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Has(1, 3) || !s.Has(3, 1) || !s.Has(2, 0) {
		t.Error("membership broken")
	}
	edges := s.Edges()
	if len(edges) != 2 || edges[0] != (Edge{0, 2}) || edges[1] != (Edge{1, 3}) {
		t.Errorf("Edges() = %v", edges)
	}
}

func TestIORoundTrip(t *testing.T) {
	for seed := rnd.Seed(0); seed < 4; seed++ {
		g := randomGraph(50, 0.1, seed)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("round trip changed size: %d/%d -> %d/%d", g.N(), g.M(), back.N(), back.M())
		}
		for _, e := range g.Edges() {
			if !back.HasEdge(e.U, e.V) {
				t.Fatalf("lost edge %v", e)
			}
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",
		"abc",
		"3 1\n0 0\n",   // self loop
		"3 1\n0 5\n",   // out of range
		"3 2\n0 1\n",   // header mismatch
		"3 1\n0 1 2\n", // too many fields
		"3 1\n0 x\n",   // non-numeric
		"-1 0\n",       // negative n
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Errorf("input %q: expected error", c)
		}
	}
	// Comments and blank lines are fine.
	g, err := ReadEdgeList(strings.NewReader("3 1\n# comment\n\n0 1\n"))
	if err != nil || g.M() != 1 {
		t.Errorf("comment handling: %v, m=%v", err, g)
	}
}

func TestMinMaxDegree(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}})
	if g.MaxDegree() != 3 || g.MinDegree() != 0 {
		t.Errorf("max=%d min=%d, want 3, 0", g.MaxDegree(), g.MinDegree())
	}
	empty := NewBuilder(0).Build()
	if empty.MaxDegree() != 0 || empty.MinDegree() != 0 {
		t.Error("empty graph degrees should be 0")
	}
}

func TestEdgeCanonKey(t *testing.T) {
	a, b := Edge{5, 2}, Edge{2, 5}
	if a.Key() != b.Key() {
		t.Error("canonical keys differ for the same undirected edge")
	}
	if a.Canon() != (Edge{2, 5}) {
		t.Errorf("Canon = %v", a.Canon())
	}
}

func TestGirth(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"triangle", complete(3), 3},
		{"k5", complete(5), 3},
		{"c4", cycle(4), 4},
		{"c9", cycle(9), 9},
		{"path", path(10), -1},
		{"tree", FromEdges(5, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 3}, {U: 1, V: 4}}), -1},
		{"petersen-ish grid", FromEdges(6, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 3, V: 4}, {U: 4, V: 5}}), 4},
	}
	for _, c := range cases {
		if got := c.g.Girth(); got != c.want {
			t.Errorf("%s: girth = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestGirthBipartiteComplete(t *testing.T) {
	b := NewBuilder(6)
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			b.AddEdge(i, j)
		}
	}
	if got := b.Build().Girth(); got != 4 {
		t.Errorf("K33 girth = %d, want 4", got)
	}
}

func TestRandomEdgeUniform(t *testing.T) {
	g := FromEdges(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 0, V: 4}})
	prg := rnd.NewPRG(9)
	counts := map[Edge]int{}
	const trials = 50000
	for i := 0; i < trials; i++ {
		u, v := g.RandomEdge(prg)
		if !g.HasEdge(u, v) || u > v {
			t.Fatalf("RandomEdge returned (%d,%d)", u, v)
		}
		counts[Edge{U: u, V: v}]++
	}
	want := float64(trials) / float64(g.M())
	for e, c := range counts {
		if float64(c) < want*0.9 || float64(c) > want*1.1 {
			t.Errorf("edge %v drawn %d times, want about %.0f", e, c, want)
		}
	}
}

func TestRandomEdgeSkipsIsolatedVertices(t *testing.T) {
	// Vertices 1 and 3 are isolated; sampling must still be correct.
	g := FromEdges(5, []Edge{{U: 0, V: 2}, {U: 2, V: 4}})
	prg := rnd.NewPRG(3)
	for i := 0; i < 1000; i++ {
		u, v := g.RandomEdge(prg)
		if !g.HasEdge(u, v) {
			t.Fatalf("bad edge (%d,%d)", u, v)
		}
	}
}

func TestRandomEdgePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on edgeless graph")
		}
	}()
	NewBuilder(3).Build().RandomEdge(rnd.NewPRG(1))
}
