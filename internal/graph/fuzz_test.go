package graph

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lca/internal/rnd"
)

// FuzzReadEdgeList hardens the parser: arbitrary bytes must either parse
// into a consistent graph or return an error — never panic, never produce
// a graph whose invariants fail.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("3 1\n0 1\n"))
	f.Add([]byte("3 2\n0 1\n1 2\n"))
	f.Add([]byte(""))
	f.Add([]byte("abc"))
	f.Add([]byte("5 1\n# comment\n\n3 4\n"))
	f.Add([]byte("2 1\n0 0\n"))
	f.Add([]byte("-3 -7\n"))
	f.Add([]byte("3 1\n0 1 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Guard against absurd vertex counts: the parser allocates O(n),
		// which is legitimate for real inputs but an OOM vector under
		// fuzzing.
		firstLine, _, _ := strings.Cut(string(data), "\n")
		fields := strings.Fields(firstLine)
		if len(fields) > 0 {
			if n, err := strconv.Atoi(fields[0]); err == nil && n > 1_000_000 {
				t.Skip("header too large for fuzzing")
			}
		}
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Parsed graphs must be internally consistent.
		if len(g.Edges()) != g.M() {
			t.Fatalf("edge count mismatch: %d vs %d", len(g.Edges()), g.M())
		}
		for _, e := range g.Edges() {
			if e.U == e.V {
				t.Fatal("self-loop survived parsing")
			}
			if g.AdjacencyIndex(e.U, e.V) < 0 || g.AdjacencyIndex(e.V, e.U) < 0 {
				t.Fatal("adjacency index inconsistent")
			}
		}
		// Round trip must be stable.
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatal("round trip changed the graph")
		}
	})
}

// FuzzEdgeCanonKey checks the canonical-key bijection on arbitrary pairs.
func FuzzEdgeCanonKey(f *testing.F) {
	f.Add(0, 1)
	f.Add(7, 7)
	f.Add(1000000, 3)
	f.Fuzz(func(t *testing.T, u, v int) {
		if u < 0 || v < 0 || u > 1<<30 || v > 1<<30 {
			t.Skip()
		}
		a := Edge{U: u, V: v}
		b := Edge{U: v, V: u}
		if a.Key() != b.Key() {
			t.Fatalf("keys differ for (%d,%d)", u, v)
		}
		c := a.Canon()
		if c.U > c.V {
			t.Fatalf("canon not ordered: %+v", c)
		}
	})
}

// FuzzAdjacencyIndex checks the Adjacency lookups of a sorted and a
// shuffled build of one edge list against a map built from their rows,
// and the rows against the Builder, for every pair of IDs in [-2, n+2),
// so IDs out of range on either side are covered. The first byte gives
// n (at most 64); each later pair of bytes is an edge, taken mod n.
func FuzzAdjacencyIndex(f *testing.F) {
	f.Add([]byte{})                                // empty graph
	f.Add([]byte{9})                               // isolated vertices
	f.Add([]byte{6, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5}) // star
	complete := []byte{7}
	for u := byte(0); u < 7; u++ {
		for v := u + 1; v < 7; v++ {
			complete = append(complete, u, v)
		}
	}
	f.Add(complete)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) > 0 {
			n = int(data[0]) % 65
		}
		b := NewBuilder(n)
		for i := 1; n > 0 && i+1 < len(data); i += 2 {
			b.AddEdge(int(data[i])%n, int(data[i+1])%n)
		}
		for _, g := range []*Graph{b.Build(), b.BuildShuffled(rnd.NewPRG(rnd.Seed(len(data))))} {
			pos := map[[2]int]int{}
			for u := range g.N() {
				for i, w := range g.Neighbors(u) {
					pos[[2]int{u, w}] = i
				}
			}
			for u := -2; u < n+2; u++ {
				for v := -2; v < n+2; v++ {
					want, ok := pos[[2]int{u, v}]
					if !ok {
						want = -1
					}
					inRange := u >= 0 && u < n && v >= 0 && v < n
					if inRange && ok != b.HasEdge(u, v) {
						t.Fatalf("n=%d: rows hold (%d,%d) = %v, builder %v", n, u, v, ok, b.HasEdge(u, v))
					}
					if g.AdjacencyIndex(u, v) != want || g.Adjacency(u, v) != want || g.HasEdge(u, v) != ok {
						t.Fatalf("n=%d (%d,%d): AdjacencyIndex %d, Adjacency %d, HasEdge %v; rows say %d",
							n, u, v, g.AdjacencyIndex(u, v), g.Adjacency(u, v), g.HasEdge(u, v), want)
					}
				}
			}
		}
	})
}

// refBuilder is the map-based Builder that a key list and a counting
// build replaced: every AddEdge inserts the canonical key into a set, and
// build fills rows from the set's keys in map order, then sorts each row.
// FuzzBuilder checks Builder against it.
type refBuilder struct {
	n     int
	edges map[uint64]struct{}
}

func newRefBuilder(n int) *refBuilder {
	return &refBuilder{n: n, edges: make(map[uint64]struct{})}
}

func (b *refBuilder) AddEdge(u, v int) {
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.edges[Edge{U: u, V: v}.Key()] = struct{}{}
}

func (b *refBuilder) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		return false
	}
	_, ok := b.edges[Edge{U: u, V: v}.Key()]
	return ok
}

func (b *refBuilder) NumEdges() int { return len(b.edges) }

func (b *refBuilder) build(prg *rnd.PRG) *Graph {
	keys := make([]uint64, 0, len(b.edges))
	for k := range b.edges {
		keys = append(keys, k)
	}
	stub := make([]int, b.n+1)
	for _, k := range keys {
		u, v := int(k>>32), int(uint32(k))
		stub[u+1]++
		stub[v+1]++
	}
	for v := 0; v < b.n; v++ {
		stub[v+1] += stub[v]
	}
	cells := make([]int, stub[b.n])
	fill := slices.Clone(stub[:b.n])
	for _, k := range keys {
		u, v := int(k>>32), int(uint32(k))
		cells[fill[u]] = v
		fill[u]++
		cells[fill[v]] = u
		fill[v]++
	}
	g := &Graph{cells: cells, stub: stub, m: len(b.edges)}
	for v := 0; v < b.n; v++ {
		l := g.Neighbors(v)
		slices.Sort(l)
		if prg != nil {
			prg.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
		}
	}
	return g
}

// Builder ops for FuzzBuilder: an op byte (taken mod numOps) and its
// operands, read as 0 past the end of the input.
const (
	opAdd      = iota // AddEdge(u, v): two bytes, each taken mod n
	opHas             // HasEdge(u, v): two bytes, each an ID in [-2, n+2), or 2^32+1 for 255
	opNum             // NumEdges()
	opBuild           // Build()
	opShuffled        // BuildShuffled(PRG seeded by the next byte)
	numOps
)

// FuzzBuilder runs one sequence of Builder calls on Builder and on
// refBuilder, the map-based builder it replaced, and requires every
// answer, every M and every row to match. The first byte gives n (at most
// 64); the rest is a sequence of ops (see opAdd). Builds may come in the
// middle, with more edges after them, and every sequence ends in a Build.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{})
	// A self-loop only.
	f.Add([]byte{3, opAdd, 1, 1, opNum, opHas, 3, 3})
	// One edge, three times each way, asked about in between.
	f.Add([]byte{4, opAdd, 1, 2, opAdd, 2, 1, opAdd, 1, 2, opHas, 3, 4, opNum, opAdd, 2, 1, opAdd, 1, 2, opAdd, 2, 1})
	// K8 in descending key order.
	k8 := []byte{8}
	for u := 6; u >= 0; u-- {
		for v := 7; v > u; v-- {
			k8 = append(k8, opAdd, byte(u), byte(v))
		}
	}
	f.Add(append(k8, opShuffled, 9, opNum))
	// Build, add edges, build again; ask about an edge added after the
	// first question.
	f.Add([]byte{6, opAdd, 0, 1, opAdd, 4, 5, opBuild, opAdd, 1, 0, opAdd, 2, 3, opShuffled, 1, opHas, 2, 3, opAdd, 5, 0, opNum, opHas, 7, 2, opBuild})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) > 0 {
			n, data = int(data[0])%65, data[1:]
		}
		next := func() byte { // the next byte, or 0 past the end
			if len(data) == 0 {
				return 0
			}
			x := data[0]
			data = data[1:]
			return x
		}
		id := func(x byte) int {
			if x == 255 {
				return 1<<32 + 1
			}
			return int(x)%(n+4) - 2
		}
		same := func(what string, g, want *Graph) {
			if g.N() != want.N() || g.M() != want.M() {
				t.Fatalf("%s: N %d, M %d; map builder N %d, M %d", what, g.N(), g.M(), want.N(), want.M())
			}
			for v := range g.N() {
				if !slices.Equal(g.Neighbors(v), want.Neighbors(v)) {
					t.Fatalf("%s: row %d is %v; map builder %v", what, v, g.Neighbors(v), want.Neighbors(v))
				}
			}
		}
		b, ref := NewBuilder(n), newRefBuilder(n)
		for len(data) > 0 {
			switch next() % numOps {
			case opAdd:
				u, v := next(), next()
				if n > 0 {
					b.AddEdge(int(u)%n, int(v)%n)
					ref.AddEdge(int(u)%n, int(v)%n)
				}
			case opHas:
				u, v := id(next()), id(next())
				if got, want := b.HasEdge(u, v), ref.HasEdge(u, v); got != want {
					t.Fatalf("HasEdge(%d, %d) = %v, map builder %v", u, v, got, want)
				}
			case opNum:
				if got, want := b.NumEdges(), ref.NumEdges(); got != want {
					t.Fatalf("NumEdges() = %d, map builder %d", got, want)
				}
			case opBuild:
				same("Build", b.Build(), ref.build(nil))
			case opShuffled:
				seed := rnd.Seed(next())
				same("BuildShuffled", b.BuildShuffled(rnd.NewPRG(seed)), ref.build(rnd.NewPRG(seed)))
			}
		}
		same("final Build", b.Build(), ref.build(nil))
	})
}
