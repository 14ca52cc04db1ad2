package oracle

import (
	"testing"

	"lca/internal/graph"
)

func testGraph() *graph.Graph {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	return b.Build()
}

func TestGraphOracleMirrorsGraph(t *testing.T) {
	g := testGraph()
	o := New(g)
	if o.N() != g.N() {
		t.Fatalf("N = %d, want %d", o.N(), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if o.Degree(v) != g.Degree(v) {
			t.Errorf("Degree(%d) mismatch", v)
		}
		for i := 0; i <= g.Degree(v); i++ { // one past the end too
			if o.Neighbor(v, i) != g.Neighbor(v, i) {
				t.Errorf("Neighbor(%d,%d) mismatch", v, i)
			}
		}
		for w := 0; w < g.N(); w++ {
			if o.Adjacency(v, w) != g.AdjacencyIndex(v, w) {
				t.Errorf("Adjacency(%d,%d) mismatch", v, w)
			}
		}
	}
}

func TestCounterCounts(t *testing.T) {
	c := NewCounter(New(testGraph()))
	c.Degree(0)
	c.Degree(1)
	c.Neighbor(0, 0)
	c.Adjacency(0, 1)
	c.Adjacency(0, 5)
	s := c.Stats()
	if s.Degree != 2 || s.Neighbor != 1 || s.Adjacency != 2 || s.Total() != 5 {
		t.Fatalf("stats = %+v", s)
	}
	c.N() // must not count
	if c.Stats().Total() != 5 {
		t.Fatal("N() was counted as a probe")
	}
	c.Reset()
	if c.Stats().Total() != 0 {
		t.Fatal("Reset did not clear stats")
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Neighbor: 10, Degree: 5, Adjacency: 3}
	b := Stats{Neighbor: 4, Degree: 2, Adjacency: 1}
	d := a.Sub(b)
	if d != (Stats{Neighbor: 6, Degree: 3, Adjacency: 2}) {
		t.Fatalf("Sub = %+v", d)
	}
	if d.Total() != 11 {
		t.Fatalf("Total = %d", d.Total())
	}
}

// scanGraph is a graph with the AdjacencyScanner op, answered by the
// scalar loop, counting its calls.
type scanGraph struct {
	*graph.Graph
	calls int
}

func (g *scanGraph) AdjacencyEach(u int, vs, idx []int, first bool) int {
	g.calls++
	return adjacencyLoop(g.Graph, u, vs, idx, first)
}

// TestAdjacencyEachMatchesScalar: over a plain oracle, a Counter over
// one, a Counter over an oracle with the op and a Counter over that
// Counter, AdjacencyEach answers each target as Adjacency does, stops
// after the first edge when asked, and charges one Adjacency probe per
// answered target, as the scalar loop does.
func TestAdjacencyEachMatchesScalar(t *testing.T) {
	g := testGraph()
	lists := [][]int{nil, {1, 2, 5}, {5, 3, 2, 1}, {-1, 6, 0, 2}, {4, 4, 3}}
	for _, tc := range []struct {
		name   string
		build  func() (Oracle, *scanGraph)
		native bool // the op reaches scanGraph
	}{
		{"plain", func() (Oracle, *scanGraph) { return New(g), nil }, false},
		{"counter", func() (Oracle, *scanGraph) { return NewCounter(New(g)), nil }, false},
		{"counter-op", func() (Oracle, *scanGraph) { s := &scanGraph{Graph: g}; return NewCounter(s), s }, true},
		{"counter-counter-op", func() (Oracle, *scanGraph) {
			s := &scanGraph{Graph: g}
			return NewCounter(NewCounter(s)), s
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, sg := tc.build()
			ref := NewCounter(New(g))
			calls := 0
			for u := -1; u <= g.N(); u++ {
				for _, vs := range lists {
					for _, first := range []bool{false, true} {
						idx := make([]int, len(vs))
						n := AdjacencyEach(o, u, vs, idx, first)
						want := len(vs)
						for k, v := range vs {
							a := ref.Adjacency(u, v)
							if idx[k] != a {
								t.Fatalf("AdjacencyEach(%d, %v, first=%v)[%d] = %d, Adjacency %d", u, vs, first, k, idx[k], a)
							}
							if first && a >= 0 {
								want = k + 1
								break
							}
						}
						if n != want {
							t.Fatalf("AdjacencyEach(%d, %v, first=%v) answered %d, want %d", u, vs, first, n, want)
						}
						calls++
					}
				}
			}
			if c, ok := o.(*Counter); ok && c.Stats() != ref.Stats() {
				t.Fatalf("stats %+v, scalar %+v", c.Stats(), ref.Stats())
			}
			if tc.native && sg.calls != calls {
				t.Fatalf("the op below ran %d times, want %d", sg.calls, calls)
			}
		})
	}
}

// TestAdjacencyEachBudgetStopsAtExactProbe: under a LimitOracle whose
// budget runs out inside a list, AdjacencyEach through a Counter (and a
// Counter over it) panics at the probe the scalar loop panics at, with
// the same Used() and the same Counter stats.
func TestAdjacencyEachBudgetStopsAtExactProbe(t *testing.T) {
	g := testGraph()
	vs := []int{5, 3, 4, 2, 1}
	for budget := uint64(0); budget <= uint64(len(vs)); budget++ {
		run := func(each bool) (used uint64, inner, outer Stats, r any) {
			l := NewLimit(New(g), budget)
			in := NewCounter(l)
			out := NewCounter(in)
			func() {
				defer func() { r = recover() }()
				if each {
					AdjacencyEach(out, 0, vs, make([]int, len(vs)), false)
					return
				}
				for _, v := range vs {
					out.Adjacency(0, v)
				}
			}()
			return l.Used(), in.Stats(), out.Stats(), r
		}
		u1, i1, o1, r1 := run(true)
		u2, i2, o2, r2 := run(false)
		if u1 != u2 || i1 != i2 || o1 != o2 || r1 != r2 {
			t.Fatalf("budget %d: each used=%d inner=%+v outer=%+v panic=%v; scalar used=%d inner=%+v outer=%+v panic=%v",
				budget, u1, i1, o1, r1, u2, i2, o2, r2)
		}
		if budget < uint64(len(vs)) && r1 != (ErrBudgetExceeded{Budget: budget}) {
			t.Fatalf("budget %d: panic %v, want ErrBudgetExceeded", budget, r1)
		}
	}
}

// scalarOnly hides every optional capability of the wrapped oracle.
type scalarOnly struct{ Oracle }

// TestGraphRowsInPlace: a Counter over an in-memory graph hands out the
// graph's own rows and charges them as the scalar loop does, and a
// LimitOracle over the graph, taking its Explorer branch, stops a row at
// the probe the scalar loop stops at, with the same Used() and the same
// Counter stats, for every budget up to the row's whole cost.
func TestGraphRowsInPlace(t *testing.T) {
	g := testGraph() // deg(0) = 2, deg(5) = 0
	for _, v := range []int{0, 5} {
		c, s := NewCounter(g), NewCounter(scalarOnly{g})
		row, loop := c.Neighbors(v), s.Neighbors(v)
		if len(row) != len(loop) || c.Stats() != s.Stats() {
			t.Fatalf("row %d: %v with %+v; scalar loop %v with %+v", v, row, c.Stats(), loop, s.Stats())
		}
		if len(row) > 0 && &row[0] != &g.Neighbors(v)[0] {
			t.Fatalf("row %d is a copy, not the graph's row", v)
		}
	}
	for budget := uint64(0); budget <= 3; budget++ {
		run := func(o Oracle) (used uint64, st Stats, r any) {
			l := NewLimit(o, budget)
			c := NewCounter(l)
			func() {
				defer func() { r = recover() }()
				c.Neighbors(0)
			}()
			return l.Used(), c.Stats(), r
		}
		u1, s1, r1 := run(g)
		u2, s2, r2 := run(scalarOnly{g})
		if u1 != u2 || s1 != s2 || r1 != r2 {
			t.Fatalf("budget %d: graph used=%d %+v panic=%v; scalar used=%d %+v panic=%v", budget, u1, s1, r1, u2, s2, r2)
		}
	}
}
