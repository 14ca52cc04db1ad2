package source

// Allocation pins for the hot local path: with tracing off, steady-state
// scalar probes against the implicit generators and the mmap CSR backend
// must not allocate at all. These are the per-probe halves of the
// bounded-heap acceptance tests at the session level — a regression here
// (an interface boxing, a closure capture, a forgotten buffer) shows up
// as a nonzero figure long before it moves a benchmark.

import (
	"testing"

	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/rnd"
)

// probeLoop exercises the three scalar probe ops against a primed
// working set; the return value defeats dead-code elimination.
func probeLoop(src Source, vs []int, round int) int {
	sink := 0
	for _, v := range vs {
		d := src.Degree(v)
		sink += d
		if d > 0 {
			w := src.Neighbor(v, round%d)
			sink += w
			sink += src.Adjacency(v, w)
		}
	}
	return sink
}

func assertProbesAllocFree(t *testing.T, name string, src Source, n int) {
	t.Helper()
	vs := make([]int, 64)
	for i := range vs {
		vs[i] = (i * 982_451_653) % n
	}
	sink := probeLoop(src, vs, 0) // warm: fault pages, fill lazy state
	round := 1
	allocs := testing.AllocsPerRun(500, func() {
		sink += probeLoop(src, vs, round)
		round++
	})
	if allocs != 0 {
		t.Errorf("%s: steady-state probes allocate %.1f times per run, want 0 (sink %d)", name, allocs, sink)
	}
}

// TestImplicitProbeHotPathAllocFree pins the implicit generators at zero
// allocations per steady-state probe, at the n=10^8 scale the SRC sweep
// runs them.
func TestImplicitProbeHotPathAllocFree(t *testing.T) {
	const n = 100_000_000
	offsets, err := gen.CirculantOffsets(n, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := Circulant(n, offsets)
	if err != nil {
		t.Fatal(err)
	}
	assertProbesAllocFree(t, "ring", Ring(n), n)
	assertProbesAllocFree(t, "circulant", circ, n)
}

// TestCSRMmapProbeHotPathAllocFree pins the mmap CSR backend at zero
// allocations per probe: a probe is a couple of loads against the
// mapping plus two atomic counter updates, nothing else. gen.Gnp and
// BuildShuffled write unsorted rows, whose Adjacency probes take the
// unsorted-row scan; the Gnp graph rebuilt from its edge list writes
// sorted rows and the sorted flag, so its probes take the binary
// search. AdjacencyEach over target lists is pinned at zero too, on
// every file: target by target and in one pass on the unsorted ones.
func TestCSRMmapProbeHotPathAllocFree(t *testing.T) {
	skipNoMmap(t)
	gnp := gen.Gnp(5_000, 0.002, 17)
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		sorted bool
	}{
		{"csr-mmap", gnp, false},
		{"csr-mmap-shuffled", hubGraph(2100).BuildShuffled(rnd.NewPRG(5)), false},
		{"csr-mmap-sorted", graph.FromEdges(gnp.N(), gnp.Edges()), true},
	} {
		c, err := OpenCSRMmap(writeCSRFile(t, tc.g))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if c.Sorted() != tc.sorted {
			t.Fatalf("%s: Sorted() = %v, want %v", tc.name, c.Sorted(), tc.sorted)
		}
		assertProbesAllocFree(t, tc.name, c, tc.g.N())
		// AdjacencyEach target by target (3 targets) and in one pass
		// (two chunks of targets), with and without first.
		for _, m := range []int{3, 2 * eachChunk} {
			vs := make([]int, m)
			for k := range vs {
				vs[k] = k * 7919 % tc.g.N()
			}
			idx := make([]int, m)
			u := 0
			allocs := testing.AllocsPerRun(200, func() {
				c.AdjacencyEach(u, vs, idx, false)
				c.AdjacencyEach(u, vs, idx, true)
				u = (u + 1) % tc.g.N()
			})
			if allocs != 0 {
				t.Errorf("%s: AdjacencyEach of %d targets allocates %.1f times per run, want 0", tc.name, m, allocs)
			}
		}
	}
}
