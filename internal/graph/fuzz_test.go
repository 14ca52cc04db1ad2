package graph

import (
	"bytes"
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
