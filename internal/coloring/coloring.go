// Package coloring implements a (Delta+1)-coloring LCA via random-order
// greedy simulation: each vertex takes the smallest color unused by its
// predecessors in a hash-derived random order. A query recursively colors
// the lower-priority neighborhood, so the probe cost mirrors the MIS
// query-tree behaviour.
//
// That neighborhood is a DAG, wide but shallow, and the recursion reads
// all of it. So each top-level query first hands the DAG to
// oracle.Explore, which fetches it one level per round trip when the
// chain's row tier batches, and then runs the recursion unchanged over
// the fetched rows: answers and probe counts come from the recursion
// alone. Over a local source, or under a probe budget, Explore does
// nothing.
package coloring

import (
	"lca/internal/oracle"
	"lca/internal/rnd"
)

// Coloring is an LCA answering "what color is v?" queries consistently
// with the greedy first-fit coloring under a random vertex order. Colors
// are in [0, deg(v)+1) for each v, hence globally within [0, Delta+1).
// Construct with New; the zero value is unusable. Not safe for concurrent
// use.
type Coloring struct {
	counter *oracle.Counter
	fam     *rnd.Family
	memo    map[int]int
	// next is children as a func value, made once in New so an inert
	// Explore allocates nothing; kids is its reused result buffer.
	next func(v int, row []int) []int
	kids []int
}

// New returns a coloring LCA over o.
func New(o oracle.Oracle, seed rnd.Seed) *Coloring {
	c := &Coloring{
		counter: oracle.NewCounter(o),
		fam:     rnd.NewFamily(seed.Derive(0xc01), 16),
		memo:    make(map[int]int),
	}
	c.next = c.children
	return c
}

// ProbeStats exposes cumulative probe counts.
func (c *Coloring) ProbeStats() oracle.Stats { return c.counter.Stats() }

// Before reports whether u precedes v in the random greedy order
// (priorities tie-broken by ID, so the order is a strict total order).
func (c *Coloring) Before(u, v int) bool {
	hu, hv := c.fam.Hash(uint64(u)), c.fam.Hash(uint64(v))
	if hu != hv {
		return hu < hv
	}
	return u < v
}

// QueryLabel returns v's color: the smallest color not taken by any
// neighbor preceding v in the random order. The query DAG is prefetched
// first (oracle.Explore), then colored by the recursion.
func (c *Coloring) QueryLabel(v int) int {
	if col, ok := c.memo[v]; ok {
		return col
	}
	oracle.Explore(c.counter.Unwrap(), v, c.next)
	return c.label(v)
}

// children returns the vertices label(v) recurses into from v's row: the
// unmemoized neighbors preceding v. The result is valid until the next
// call.
func (c *Coloring) children(v int, row []int) []int {
	c.kids = c.kids[:0]
	for _, w := range row {
		if _, done := c.memo[w]; !done && c.Before(w, v) {
			c.kids = append(c.kids, w)
		}
	}
	return c.kids
}

// label is the recursion of QueryLabel. The full neighbor row is always
// needed here, so the scan is one exploration — a single batched round
// trip on network backends, or none once Explore has fetched it.
func (c *Coloring) label(v int) int {
	if col, ok := c.memo[v]; ok {
		return col
	}
	row := c.counter.Neighbors(v)
	deg := len(row)
	used := make([]bool, deg+1)
	for _, w := range row {
		if c.Before(w, v) {
			if wc := c.label(w); wc <= deg {
				used[wc] = true
			}
		}
	}
	col := 0
	for col <= deg && used[col] {
		col++
	}
	c.memo[v] = col
	return col
}
