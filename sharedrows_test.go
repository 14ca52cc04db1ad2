package lca_test

// Shared rows: an in-memory graph hands its adjacency rows to every
// caller in place (it is an oracle.Explorer), and parallel build workers
// receive the same row slices. No algorithm, point query or build may
// write to one.

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"lca"
)

// rowDigest hashes every row of g, cell by cell, with each cell's
// Adjacency answer.
func rowDigest(g *lca.Graph) [sha256.Size]byte {
	h := sha256.New()
	var b []byte
	for v := 0; v < g.N(); v++ {
		row := g.Neighbors(v)
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(len(row)))
		for _, w := range row {
			b = binary.LittleEndian.AppendUint64(b, uint64(w))
			b = binary.LittleEndian.AppendUint64(b, uint64(g.Adjacency(v, w)))
		}
		h.Write(b)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestSharedRowsSurviveAlgorithms runs every registered algorithm over a
// shuffled Gnp graph: point queries, then batch builds at 1 and 2
// workers. The graph's rows and Adjacency answers must be unchanged.
func TestSharedRowsSurviveAlgorithms(t *testing.T) {
	g := lca.Gnp(300, 0.03, 17)
	want := rowDigest(g)
	edges := g.Edges()
	for _, workers := range []int{1, 2} {
		s := lca.NewSession(g, lca.WithSeed(5), lca.WithWorkers(workers))
		for _, a := range s.Algos() {
			var err error
			switch a.Kind {
			case "edge":
				for i := 0; i < len(edges) && err == nil; i += 97 {
					_, err = s.Edge(a.Name, edges[i].V, edges[i].U)
				}
				if err == nil {
					_, _, err = s.BuildSubgraph(a.Name)
				}
			case "vertex":
				for v := 0; v < g.N() && err == nil; v += 29 {
					_, err = s.Vertex(a.Name, v)
				}
				if err == nil {
					_, _, err = s.BuildVertexSet(a.Name)
				}
			case "label":
				for v := 0; v < g.N() && err == nil; v += 29 {
					_, err = s.Label(a.Name, v)
				}
				if err == nil {
					_, _, err = s.BuildLabels(a.Name)
				}
			default:
				t.Fatalf("%s: unknown kind %q", a.Name, a.Kind)
			}
			if err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
			if rowDigest(g) != want {
				t.Fatalf("%d workers: %s changed the graph's rows", workers, a.Name)
			}
		}
		s.Close()
	}
}
