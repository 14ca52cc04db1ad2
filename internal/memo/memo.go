// Package memo is the per-vertex state of the random-order greedy LCAs
// (MIS and coloring): each vertex's memoized answer and its priority in
// the greedy order, kept in one Table per algorithm instance.
//
// A Table is a map while it holds fewer than n/16 answers (n is the
// oracle's N()), and the Put that brings it to n/16 switches it to
// slices indexed by vertex: one answer cell and one cached priority per
// vertex of [0, n). Keys outside [0, n), which only a corrupt source can
// produce, stay in the map, so no key is ever out of a slice's range.
// Lookups hit and miss exactly as a map's do, so the representation
// moves neither answers nor probe counts, and no option selects it: the
// traffic does. A batch build's instance answers most of the graph and
// switches within its first n/16 answers. A per-request instance answers
// tens of vertices against n of 10^6 or more and stays a map, allocating
// nothing it did not allocate before; a Session's point-query instance
// switches only once its queries together have answered n/16 vertices.
//
// The trade is memory. A switched table holds n × (answer + 8) bytes
// whatever it has answered: 9 B per vertex for mis (a uint8 answer) and
// 12 B for coloring (a uint32), 1.8 MB and 2.4 MB at n = 2·10^5. A Go
// map entry of either kind took 24–28 B of heap there (Go 1.24), so a
// table that answers most of the graph ends smaller than the map would
// have (1.8 MB against 4.7 MB for mis at 0.83n), while at the switch
// the slices cost 6–8 times the 0.3 MB map they replace. The same
// ratio holds at any n: a point-query instance that has answered n/16
// vertices of a 10^8-vertex source trades a map of about 0.16 GB for
// 0.9 GB (mis) or 1.2 GB (coloring) of slices. The priority cache
// exists only once the table is a slice; before, each priority is
// hashed where it is needed.
package memo

import "lca/internal/rnd"

// switchDiv sets the switch point: n/switchDiv answers.
const switchDiv = 16

// Cell is an answer's stored form. The zero value means "no answer".
type Cell interface{ ~uint8 | ~uint32 }

// Table is one LCA instance's per-vertex state over a graph of n
// vertices: answers of type T, where the zero T means none, and
// priorities under one hash family. Make it with Make; the zero value
// is unusable. Not safe for concurrent use.
type Table[T Cell] struct {
	fam *rnd.Family
	n   int
	// m holds every answer before the switch and, after it, the
	// answers of keys outside [0, n).
	m map[int]T
	// ans and prio are nil before the switch. After it, ans[v] is v's
	// answer and prio[v] is v's priority plus one, or 0 if v has not
	// been hashed yet (priorities are below 2^61-1, so the sum fits).
	ans  []T
	prio []uint64
}

// Make returns an empty table for a graph of n vertices, ordered by
// fam. It returns the Table by value so that an instance can embed it
// without an allocation of its own.
func Make[T Cell](n int, fam *rnd.Family) Table[T] {
	return Table[T]{fam: fam, n: max(n, 0), m: make(map[int]T)}
}

// Get returns v's answer, or the zero T if v has none.
func (t *Table[T]) Get(v int) T {
	if uint(v) < uint(len(t.ans)) {
		return t.ans[v]
	}
	return t.m[v]
}

// Put records x, which must not be the zero T, as v's answer.
func (t *Table[T]) Put(v int, x T) {
	if uint(v) < uint(len(t.ans)) {
		t.ans[v] = x
		return
	}
	t.m[v] = x
	if t.ans == nil && len(t.m) >= t.n/switchDiv {
		t.toSlices()
	}
}

// toSlices moves the map's answers of keys in [0, n) into a slice and
// keeps the rest in a fresh map, so the old one's buckets are freed.
func (t *Table[T]) toSlices() {
	t.ans = make([]T, t.n)
	t.prio = make([]uint64, t.n)
	rest := make(map[int]T)
	for v, x := range t.m {
		if uint(v) < uint(t.n) {
			t.ans[v] = x
		} else {
			rest[v] = x
		}
	}
	t.m = rest
}

// Sliced reports whether the table has switched to slices.
func (t *Table[T]) Sliced() bool { return t.ans != nil }

// Priority returns v's priority in the greedy order, fam.Hash(v). Once
// the table is sliced, each vertex of [0, n) is hashed at most once.
func (t *Table[T]) Priority(v int) uint64 {
	if uint(v) >= uint(len(t.prio)) {
		return t.fam.Hash(uint64(v))
	}
	p := t.prio[v]
	if p == 0 {
		p = t.fam.Hash(uint64(v)) + 1
		t.prio[v] = p
	}
	return p - 1
}

// Before reports whether u precedes v in the greedy order, given v's
// priority pv: the lower priority first, ties broken by the lower ID,
// so the order is a strict total order. A caller comparing many u
// against one v hashes v once.
func (t *Table[T]) Before(u, v int, pv uint64) bool {
	pu := t.Priority(u)
	return pu < pv || pu == pv && u < v
}
