package gen

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"lca/internal/graph"
	"lca/internal/rnd"
)

// rowsDigest hashes a graph's N, M and every row in vertex order, so two
// graphs share a digest only if they have the same rows in the same
// order. It returns the first 16 hex digits of the SHA-256.
func rowsDigest(g *graph.Graph) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d\n", g.N(), g.M())
	for v := range g.N() {
		fmt.Fprintln(h, g.Neighbors(v))
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestGeneratorRowsGolden pins every generator's rows, order included, at
// fixed small sizes and seeds. The shuffled generators draw one PRG
// shuffle per row in vertex order, and RandomRegular's repair draws
// decide its pairing, so a moved draw or a skipped shuffle changes a
// digest. Several inputs add an edge more than once (Torus with two rows,
// DenseCore's spokes, RandomRegular's defective pairs), which covers the
// Builder's handling of repeats.
func TestGeneratorRowsGolden(t *testing.T) {
	regular := func(n, d int, seed rnd.Seed) func() *graph.Graph {
		return func() *graph.Graph {
			g, err := RandomRegular(n, d, seed)
			if err != nil {
				t.Fatalf("RandomRegular(%d, %d, %d): %v", n, d, seed, err)
			}
			return g
		}
	}
	circulant := func(n, d int, seed rnd.Seed) func() *graph.Graph {
		return func() *graph.Graph {
			offs, err := CirculantOffsets(n, d, seed)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Circulant(n, offs)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	cases := []struct {
		name  string
		build func() *graph.Graph
		want  string
	}{
		{"Gnp(300,0.05,11)", func() *graph.Graph { return Gnp(300, 0.05, 11) }, "ee4f7565e7770a68"},
		{"Gnp(400,0.2,12)", func() *graph.Graph { return Gnp(400, 0.2, 12) }, "85ac38ad03f0cbf3"},
		{"Gnp(12,1,13)", func() *graph.Graph { return Gnp(12, 1, 13) }, "c5b432da24cde6f3"},
		{"RandomRegular(40,6,21)", regular(40, 6, 21), "968f3f26d4019b2f"},
		{"RandomRegular(300,8,22)", regular(300, 8, 22), "cfbe6203a84c691c"},
		{"RandomRegular(30,12,23)", regular(30, 12, 23), "2dbafebb2d2eb176"},
		{"ChungLu(500,2.3,8,31)", func() *graph.Graph { return ChungLu(500, 2.3, 8, 31) }, "6d1748116c199cf9"},
		{"PlantedClusters(120,4,0.3,0.02,41)", func() *graph.Graph { return PlantedClusters(120, 4, 0.3, 0.02, 41) }, "a421d634ff86724f"},
		{"DenseCore(150,20,3,51)", func() *graph.Graph { return DenseCore(150, 20, 3, 51) }, "8ab6e937304eedeb"},
		{"BlockRandom(200,25,6,61)", func() *graph.Graph { return BlockRandom(200, 25, 6, 61) }, "61f05baf3779fe84"},
		{"Circulant(101,6,71)", circulant(101, 6, 71), "be946ebfb12dcce1"},
		{"Grid(7,9)", func() *graph.Graph { return Grid(7, 9) }, "5a7e754a9903e209"},
		{"Torus(6,7)", func() *graph.Graph { return Torus(6, 7) }, "c5fea3e4eb36c74a"},
		{"Torus(2,5)", func() *graph.Graph { return Torus(2, 5) }, "b845afd256b63049"},
		{"Barbell(6,4)", func() *graph.Graph { return Barbell(6, 4) }, "df25312e4820d1e9"},
	}
	for _, c := range cases {
		if got := rowsDigest(c.build()); got != c.want {
			t.Errorf("%s: rows digest %s, want golden %s", c.name, got, c.want)
		}
	}
}
