// Package graph provides the static graph substrate behind the LCA probe
// oracle: simple undirected graphs with fixed, arbitrary adjacency-list
// orderings, an adjacency-index lookup that scans u's row in O(deg(u))
// time, and the traversal primitives used by verifiers and baselines.
//
// The adjacency-list ordering is semantically significant in the LCA model:
// Neighbor probes expose "the i-th neighbor of v", and several spanner
// constructions make decisions based on list positions (first sqrt(n)
// neighbors, block boundaries, ...). Builders therefore fix an explicit
// order at construction time and never reorder afterwards.
//
// A Graph keeps its rows flat, end to end in one []int, and hands a row
// out in place: Neighbors(v) is a shared sub-slice, not a copy, which
// makes *Graph an exploring oracle (oracle.Explorer) whose rows cost no
// probe loop and no allocation. A cell takes 8 bytes, twice the int32
// the CSR file stores, in exchange for rows the algorithms read as they
// are. Rows and offsets are all a Graph keeps.
package graph

import (
	"fmt"
	"slices"
	"sort"

	"lca/internal/rnd"
)

// Graph is an immutable simple undirected graph on vertices 0..N()-1.
// Vertex IDs are the indices themselves. The zero value is the empty graph.
type Graph struct {
	cells []int // every row in vertex order, end to end
	stub  []int // row v is cells[stub[v]:stub[v+1]]; n+1 offsets
	m     int   // number of undirected edges
}

// N returns the number of vertices.
func (g *Graph) N() int { return max(len(g.stub)-1, 0) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return g.stub[v+1] - g.stub[v] }

// Neighbor returns the i-th neighbor of v (0-indexed), or -1 if i is out of
// range. This mirrors the Neighbor probe semantics of the LCA model.
func (g *Graph) Neighbor(v, i int) int {
	row := g.Neighbors(v)
	if i < 0 || i >= len(row) {
		return -1
	}
	return row[i]
}

// Neighbors returns v's neighbor list in probe order. The slice is the
// graph's own row, shared with every caller, and must not be modified.
// Its capacity ends with the row, so an append copies it rather than
// overwrite row v+1. Neighbors makes *Graph an oracle.Explorer.
func (g *Graph) Neighbors(v int) []int {
	lo, hi := g.stub[v], g.stub[v+1]
	return g.cells[lo:hi:hi]
}

// Prefetch is the Explorer hint; every row is already in memory, so it
// does nothing.
func (g *Graph) Prefetch(...int) {}

// RandomEdge returns a uniformly random edge in canonical orientation. It
// implements the "random edge" oracle extension used by sublinear-time
// estimators: a uniformly random directed stub maps to a uniform
// undirected edge because each edge owns exactly two stubs. It panics on
// an edgeless graph.
func (g *Graph) RandomEdge(prg *rnd.PRG) (u, v int) {
	if g.m == 0 {
		panic("graph: RandomEdge on edgeless graph")
	}
	// The stub's row is the last whose offset is at most the stub:
	// O(log n) per sample. Cell s is the stub's other endpoint.
	s := prg.Intn(2 * g.m)
	w := sort.Search(len(g.stub), func(i int) bool { return g.stub[i] > s }) - 1
	e := Edge{U: w, V: g.cells[s]}.Canon()
	return e.U, e.V
}

// AdjacencyIndex returns the index of v in Gamma(u), or -1 if (u,v) is not
// an edge or u is not a vertex. This mirrors the Adjacency probe semantics
// of the LCA model: a positive answer reveals the position, not just
// existence. It scans u's row, in O(deg(u)) time.
func (g *Graph) AdjacencyIndex(u, v int) int {
	if u < 0 || u >= g.N() {
		return -1
	}
	return slices.Index(g.Neighbors(u), v)
}

// Adjacency is AdjacencyIndex under the probe-model name, making *Graph
// satisfy the source.Source probe substrate directly (the in-memory
// adapter backend of internal/source).
func (g *Graph) Adjacency(u, v int) int { return g.AdjacencyIndex(u, v) }

// HasEdge reports whether {u,v} is an edge, in O(deg(u)) time.
func (g *Graph) HasEdge(u, v int) bool { return g.AdjacencyIndex(u, v) >= 0 }

// MaxDegree returns the maximum degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum degree, or 0 for the empty graph.
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < g.N(); v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// Edge is an undirected edge in canonical orientation (U < V).
type Edge struct {
	U, V int
}

// Canon returns e with endpoints swapped into canonical order.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Key packs the canonical edge into a comparable map key.
func (e Edge) Key() uint64 {
	c := e.Canon()
	return uint64(uint32(c.U))<<32 | uint64(uint32(c.V))
}

// Edges returns all edges in canonical orientation, sorted by (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			if u < w {
				out = append(out, Edge{U: u, V: w})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges are merged and self-loops rejected. The zero value is unusable;
// construct with NewBuilder.
//
// Cost model: until Build, a Builder holds 8 B per AddEdge call, repeats
// included, and no per-edge index. Build counts degrees, fills each row
// in the order the edges were added, sorts it and drops its repeats, in
// O(m + Σ deg·log deg) time for m AddEdge calls; a row filled in
// ascending order sorts in one linear pass. HasEdge and NumEdges build a
// set of the distinct edges on first use, and AddEdge keeps it current
// from then on, so a caller that interleaves them with AddEdge pays what
// a map costs.
type Builder struct {
	n    int
	keys []uint64 // Edge.Key of every AddEdge call, in call order
	set  EdgeSet  // the distinct keys; nil until HasEdge or NumEdges
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u,v}. Self-loops and duplicates are
// ignored. It panics on out-of-range vertices.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	k := Edge{U: u, V: v}.Key()
	b.keys = append(b.keys, k)
	if b.set != nil {
		b.set[k] = struct{}{}
	}
}

// distinct returns the set of distinct edges, building it on first use.
func (b *Builder) distinct() EdgeSet {
	if b.set == nil {
		b.set = make(EdgeSet, len(b.keys))
		for _, k := range b.keys {
			b.set[k] = struct{}{}
		}
	}
	return b.set
}

// HasEdge reports whether {u,v} has been added; false for vertices
// outside [0,n), which AddEdge refuses (the edge key keeps only the low
// 32 bits of each ID, so it must not see them).
func (b *Builder) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		return false
	}
	return b.distinct().Has(u, v)
}

// NumEdges returns the number of distinct edges added so far.
func (b *Builder) NumEdges() int { return b.distinct().Len() }

// Build produces the graph with adjacency lists sorted by neighbor ID
// (a fixed, canonical order).
func (b *Builder) Build() *Graph {
	return b.build(nil)
}

// BuildShuffled produces the graph with each adjacency list independently
// shuffled by the PRG. The LCA model allows arbitrary list orderings;
// shuffled builds exercise order-sensitivity in tests and experiments.
func (b *Builder) BuildShuffled(prg *rnd.PRG) *Graph {
	return b.build(prg)
}

func (b *Builder) build(prg *rnd.PRG) *Graph {
	// Offsets from the degrees, repeats included, then rows filled in
	// key order. Afterwards fill[v] is where row v's cells end.
	stub := make([]int, b.n+1)
	for _, k := range b.keys {
		stub[int(k>>32)+1]++
		stub[int(uint32(k))+1]++
	}
	for v := 0; v < b.n; v++ {
		stub[v+1] += stub[v]
	}
	cells := make([]int, stub[b.n])
	fill := slices.Clone(stub[:b.n])
	for _, k := range b.keys {
		u, v := int(k>>32), int(uint32(k))
		cells[fill[u]] = v
		fill[u]++
		cells[fill[v]] = u
		fill[v]++
	}
	// Sort each row, drop its repeats and move it down over the gaps the
	// rows before it left; then the optional shuffle, one PRG shuffle per
	// row in vertex order.
	at, lo := 0, 0
	for v := 0; v < b.n; v++ {
		row := cells[lo:fill[v]]
		slices.Sort(row)
		row = slices.Compact(row)
		lo, stub[v] = fill[v], at
		row = cells[at : at+copy(cells[at:], row)]
		at += len(row)
		if prg != nil {
			prg.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
		}
	}
	stub[b.n] = at
	if at < len(cells) { // a repeat was dropped: keep 8 B per cell, no more
		cells = append(make([]int, 0, at), cells[:at]...)
	}
	return &Graph{cells: cells, stub: stub, m: at / 2}
}

// FromEdges builds a graph on n vertices from an edge list (duplicates and
// self-loops dropped), with sorted adjacency lists.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// Subgraph builds the subgraph of g containing exactly the given edges
// (all must be edges of g) on the same vertex set.
func (g *Graph) Subgraph(edges []Edge) *Graph {
	b := NewBuilder(g.N())
	for _, e := range edges {
		if !g.HasEdge(e.U, e.V) {
			panic(fmt.Sprintf("graph: subgraph edge (%d,%d) not in parent", e.U, e.V))
		}
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// EdgeSet is a set of undirected edges keyed canonically. It is the working
// representation of an LCA-assembled solution before it becomes a Graph.
type EdgeSet map[uint64]struct{}

// NewEdgeSet returns an empty edge set.
func NewEdgeSet() EdgeSet { return make(EdgeSet) }

// Add inserts {u,v}.
func (s EdgeSet) Add(u, v int) { s[Edge{U: u, V: v}.Key()] = struct{}{} }

// Has reports membership of {u,v}.
func (s EdgeSet) Has(u, v int) bool {
	_, ok := s[Edge{U: u, V: v}.Key()]
	return ok
}

// Len returns the number of edges in the set.
func (s EdgeSet) Len() int { return len(s) }

// Edges materializes the set as a sorted slice.
func (s EdgeSet) Edges() []Edge {
	out := make([]Edge, 0, len(s))
	for k := range s {
		out = append(out, Edge{U: int(k >> 32), V: int(uint32(k))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}
