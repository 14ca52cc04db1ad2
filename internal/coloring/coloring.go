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
//
// Colors and priorities live in a memo.Table: a map for an instance
// that colors a few vertices, slices indexed by vertex once it has
// colored n/16 of them (a batch build), where each vertex is hashed at
// most once. Either way a vertex's priority is hashed once per visit,
// not once per neighbor comparing against it.
package coloring

import (
	"slices"

	"lca/internal/memo"
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
	// memo holds color+1 per colored vertex (0: not colored yet). A
	// color is at most its row's length, and a row is an []int in
	// memory, so color+1 fits the uint32.
	memo memo.Table[uint32]
	// next is children as a func value, made once in New so an inert
	// Explore allocates nothing; kids is its reused result buffer.
	next func(v int, row []int) []int
	kids []int
	// taken is label's stack of taken-color flags: each call pushes its
	// deg+1 cells above its callers' and truncates back on return, so a
	// query allocates only when it recurses deeper than any before it.
	taken []bool
}

// New returns a coloring LCA over o.
func New(o oracle.Oracle, seed rnd.Seed) *Coloring {
	c := &Coloring{
		counter: oracle.NewCounter(o),
		memo:    memo.Make[uint32](o.N(), rnd.NewFamily(seed.Derive(0xc01), 16)),
	}
	c.next = c.children
	return c
}

// ProbeStats exposes cumulative probe counts.
func (c *Coloring) ProbeStats() oracle.Stats { return c.counter.Stats() }

// Before reports whether u precedes v in the random greedy order
// (priorities tie-broken by ID, so the order is a strict total order).
func (c *Coloring) Before(u, v int) bool { return c.memo.Before(u, v, c.memo.Priority(v)) }

// QueryLabel returns v's color: the smallest color not taken by any
// neighbor preceding v in the random order. The query DAG is prefetched
// first (oracle.Explore), then colored by the recursion.
func (c *Coloring) QueryLabel(v int) int {
	if col := c.memo.Get(v); col != 0 {
		return int(col) - 1
	}
	oracle.Explore(c.counter.Unwrap(), v, c.next)
	// A query a probe budget stopped left its cells on the stack.
	c.taken = c.taken[:0]
	return c.label(v)
}

// children returns the vertices label(v) recurses into from v's row: the
// unmemoized neighbors preceding v. The result is valid until the next
// call.
func (c *Coloring) children(v int, row []int) []int {
	c.kids = c.kids[:0]
	pv := c.memo.Priority(v)
	for _, w := range row {
		if c.memo.Get(w) == 0 && c.memo.Before(w, v, pv) {
			c.kids = append(c.kids, w)
		}
	}
	return c.kids
}

// label is the recursion of QueryLabel. The full neighbor row is always
// needed here, so the scan is one exploration — a single batched round
// trip on network backends, or none once Explore has fetched it. v's
// priority is hashed once for the whole row.
func (c *Coloring) label(v int) int {
	if col := c.memo.Get(v); col != 0 {
		return int(col) - 1
	}
	row := c.counter.Neighbors(v)
	deg := len(row)
	base := len(c.taken)
	c.taken = slices.Grow(c.taken, deg+1)[:base+deg+1]
	clear(c.taken[base:])
	pv := c.memo.Priority(v)
	for _, w := range row {
		if c.memo.Before(w, v, pv) {
			// The recursion may move the stack: index it afresh.
			if wc := c.label(w); wc <= deg {
				c.taken[base+wc] = true
			}
		}
	}
	used := c.taken[base:]
	col := 0
	for col <= deg && used[col] {
		col++
	}
	c.taken = c.taken[:base]
	c.memo.Put(v, uint32(col)+1)
	return col
}
