package graph

import (
	"fmt"
	"testing"

	"lca/internal/rnd"
)

func benchGraph(b *testing.B, n int, deg int) *Graph {
	b.Helper()
	prg := rnd.NewPRG(1)
	bld := NewBuilder(n)
	for v := 0; v < n; v++ {
		for j := 0; j < deg; j++ {
			w := prg.Intn(n)
			if w != v {
				bld.AddEdge(v, w)
			}
		}
	}
	return bld.Build()
}

// shuffledGraph draws random pairs until it holds n·deg/2 distinct
// edges, so the average degree is deg, and builds them with shuffled
// rows.
func shuffledGraph(n, deg int, seed rnd.Seed) *Graph {
	prg := rnd.NewPRG(seed)
	bld := NewBuilder(n)
	for bld.NumEdges() < n*deg/2 {
		bld.AddEdge(prg.Intn(n), prg.Intn(n))
	}
	return bld.BuildShuffled(prg)
}

func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchGraph(b, 2000, 8)
	}
}

var adjSink int

// BenchmarkAdjacencyIndex times the lookup on shuffled rows, short (2·10^5
// vertices of degree 8) and long (2·10^4 of degree 200), over 2^16 pairs
// drawn before the timer: half are edges at a uniform position in their
// row, half are non-edges, which scan the whole row.
func BenchmarkAdjacencyIndex(b *testing.B) {
	for _, c := range []struct{ n, deg int }{{200_000, 8}, {20_000, 200}} {
		b.Run(fmt.Sprintf("deg=%d", c.deg), func(b *testing.B) {
			g := shuffledGraph(c.n, c.deg, 1)
			prg := rnd.NewPRG(2)
			pairs := make([][2]int, 1<<16)
			for k := range pairs {
				u := prg.Intn(g.N())
				for g.Degree(u) == 0 {
					u = prg.Intn(g.N())
				}
				v := g.Neighbor(u, prg.Intn(g.Degree(u)))
				for k%2 == 1 && g.HasEdge(u, v) {
					v = prg.Intn(g.N())
				}
				pairs[k] = [2]int{u, v}
			}
			prg.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i&(len(pairs)-1)]
				adjSink += g.AdjacencyIndex(p[0], p[1])
			}
		})
	}
}

func BenchmarkNeighbor(b *testing.B) {
	g := benchGraph(b, 5000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Neighbor(i%g.N(), i%8)
	}
}

func BenchmarkBFSWithin(b *testing.B) {
	g := benchGraph(b, 5000, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSWithin(i%g.N(), 3)
	}
}

func BenchmarkRandomEdge(b *testing.B) {
	g := benchGraph(b, 5000, 10)
	prg := rnd.NewPRG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RandomEdge(prg)
	}
}
