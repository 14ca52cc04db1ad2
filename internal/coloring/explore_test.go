package coloring

// The query planner under coloring: over a rowfull row tier a query
// fetches its DAG one level per round trip and each DAG row once, with
// the bare chain's answers and probe counts; a probe budget turns the
// planner off; a round-trip budget checks after every level.

import (
	"errors"
	"testing"

	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/oracle"
)

// rowFake answers whole rows in one call (the rowfull op's local
// stand-in), counting one round trip per call or scalar probe and how
// often each row was fetched.
type rowFake struct {
	g       *graph.Graph
	trips   uint64
	fetched map[int]int
}

func newRowFake(g *graph.Graph) *rowFake { return &rowFake{g: g, fetched: map[int]int{}} }

func (f *rowFake) N() int                 { return f.g.N() }
func (f *rowFake) Degree(v int) int       { f.trips++; return f.g.Degree(v) }
func (f *rowFake) Neighbor(v, i int) int  { f.trips++; return f.g.Neighbor(v, i) }
func (f *rowFake) Adjacency(u, v int) int { f.trips++; return f.g.Adjacency(u, v) }
func (f *rowFake) RoundTrips() uint64     { return f.trips }

func (f *rowFake) FetchRows(vs []int) ([][]int, error) {
	f.trips++
	rows := make([][]int, len(vs))
	for i, v := range vs {
		f.fetched[v]++
		for j := 0; j < f.g.Degree(v); j++ {
			rows[i] = append(rows[i], f.g.Neighbor(v, j))
		}
	}
	return rows, nil
}

// queryDAG returns the rows a query of root reads on c, and the number
// of breadth-first levels they form: the unmemoized vertices reachable
// from root through neighbors that precede their parent.
func queryDAG(c *Coloring, g *graph.Graph, root int) (levels int, rows map[int]bool) {
	rows = map[int]bool{}
	if c.memo.Get(root) != 0 {
		return 0, rows
	}
	rows[root] = true
	for level := []int{root}; len(level) > 0; levels++ {
		var below []int
		for _, v := range level {
			for i := 0; i < g.Degree(v); i++ {
				w := g.Neighbor(v, i)
				if c.memo.Get(w) == 0 && !rows[w] && c.Before(w, v) {
					rows[w] = true
					below = append(below, w)
				}
			}
		}
		level = below
	}
	return levels, rows
}

// TestExploreOneTripPerLevel runs one instance's query sequence over a
// rowfull tier, so later queries find part of their DAG memoized.
func TestExploreOneTripPerLevel(t *testing.T) {
	g := gen.Gnp(400, 0.02, 5)
	fake := newRowFake(g)
	planned := New(oracle.NewChain(fake, oracle.ChainConfig{Prefetch: true}), 1)
	bare := New(oracle.New(g), 1)
	wide := false
	for q := 0; q < 60; q++ {
		v := (q * 97) % g.N()
		levels, rows := queryDAG(planned, g, v)
		trips := fake.trips
		clear(fake.fetched)
		before, bareBefore := planned.ProbeStats(), bare.ProbeStats()
		if got, want := planned.QueryLabel(v), bare.QueryLabel(v); got != want {
			t.Fatalf("QueryLabel(%d) = %d, bare chain %d", v, got, want)
		}
		got, want := planned.ProbeStats().Sub(before), bare.ProbeStats().Sub(bareBefore)
		if got.Degree != want.Degree || got.Neighbor != want.Neighbor || got.Adjacency != want.Adjacency {
			t.Fatalf("QueryLabel(%d) probes %+v, bare chain %+v", v, got, want)
		}
		if n := fake.trips - trips; n != uint64(levels) {
			t.Errorf("QueryLabel(%d): %d round trips for a DAG of %d rows in %d levels", v, n, len(rows), levels)
		}
		if len(fake.fetched) != len(rows) {
			t.Errorf("QueryLabel(%d) fetched %d distinct rows, its DAG has %d", v, len(fake.fetched), len(rows))
		}
		for w, n := range fake.fetched {
			if !rows[w] || n != 1 {
				t.Errorf("QueryLabel(%d) fetched row %d %d times (in its DAG: %v)", v, w, n, rows[w])
			}
		}
		wide = wide || len(rows) > levels
	}
	if !wide {
		t.Fatal("no DAG had a level of two rows: the trips could not tell levels from rows")
	}
}

// cellFake serves probes and whole rows (source.RowFetcher) and counts
// the cells it serves: one per scalar probe, 1+deg per row.
type cellFake struct {
	g     *graph.Graph
	cells int
}

func (f *cellFake) N() int                 { return f.g.N() }
func (f *cellFake) Degree(v int) int       { f.cells++; return f.g.Degree(v) }
func (f *cellFake) Neighbor(v, i int) int  { f.cells++; return f.g.Neighbor(v, i) }
func (f *cellFake) Adjacency(u, v int) int { f.cells++; return f.g.Adjacency(u, v) }

func (f *cellFake) FetchRows(vs []int) ([][]int, error) {
	rows := make([][]int, len(vs))
	for i, v := range vs {
		rows[i] = make([]int, f.g.Degree(v))
		for j := range rows[i] {
			rows[i][j] = f.g.Neighbor(v, j)
		}
		f.cells += 1 + len(rows[i])
	}
	return rows, nil
}

// catch runs fn and returns the value it panicked with, or nil.
func catch(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestExploreInertUnderProbeBudget: hints are free, so a planner under
// a probe budget would fetch the capped query's whole DAG (13695 cells
// here) where the recursion stops at the budget.
func TestExploreInertUnderProbeBudget(t *testing.T) {
	fake := &cellFake{g: gen.Gnp(2000, 0.05, 3)}
	c := New(oracle.NewChain(fake, oracle.ChainConfig{Prefetch: true, ProbeBudget: 500}), 1)
	if r := catch(func() { c.QueryLabel(7) }); r != (oracle.ErrBudgetExceeded{Budget: 500}) {
		t.Fatalf("QueryLabel(7) under a 500-probe budget panicked with %v", r)
	}
	if got := c.ProbeStats().Total(); got != 494 {
		t.Errorf("charged %d probes, want 494", got)
	}
	if fake.cells != 600 {
		t.Errorf("the source served %d cells, want the recursion's 600", fake.cells)
	}
}

// TestExploreTripBudget: without the planner a rowfull tier pays one
// round trip per DAG row, so a budget of that many trips answers the
// query, and with the planner the query's levels suffice. A smaller
// budget fails at most one level late.
func TestExploreTripBudget(t *testing.T) {
	g := gen.Gnp(400, 0.02, 5)
	bare := New(oracle.New(g), 1)
	deep := 0
	for v := 0; v < g.N(); v += 13 {
		levels, rows := queryDAG(New(oracle.New(g), 1), g, v)
		if levels < 3 {
			continue
		}
		deep++
		want := bare.QueryLabel(v)
		for _, budget := range []int{len(rows), levels} {
			fake := newRowFake(g)
			c := New(oracle.NewChain(fake, oracle.ChainConfig{Prefetch: true, TripBudget: uint64(budget)}), 1)
			var got int
			if r := catch(func() { got = c.QueryLabel(v) }); r != nil || got != want {
				t.Fatalf("QueryLabel(%d) under %d trips: %d, panic %v; want %d", v, budget, got, r, want)
			}
		}
		budget := uint64(levels - 2)
		fake := newRowFake(g)
		c := New(oracle.NewChain(fake, oracle.ChainConfig{Prefetch: true, TripBudget: budget}), 1)
		r := catch(func() { c.QueryLabel(v) })
		if err, _ := r.(error); !errors.Is(err, oracle.ErrTripBudgetExceeded{Budget: budget}) {
			t.Fatalf("QueryLabel(%d) under %d trips for %d levels panicked with %v", v, budget, levels, r)
		}
		if fake.trips > budget+1 {
			t.Errorf("QueryLabel(%d) spent %d trips of a %d budget: more than one level late", v, fake.trips, budget)
		}
	}
	if deep == 0 {
		t.Fatal("no query DAG had three levels")
	}
}
