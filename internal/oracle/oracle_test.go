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
