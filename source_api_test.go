package lca_test

// Source-backed Session tests, including the acceptance criterion of the
// implicit-source subsystem: a Session over a source with n >= 10^8
// vertices answers point queries with bounded allocations per query and
// without ever holding O(n) adjacency state.

import (
	"errors"
	"runtime"
	"testing"

	"lca"
)

// TestSessionFromSourceMatchesGraphSession pins source-backed sessions to
// graph-backed ones: the implicit ring and the materialized cycle must
// produce identical answers for every algorithm kind.
func TestSessionFromSourceMatchesGraphSession(t *testing.T) {
	const n = 400
	src, err := lca.OpenSource("ring:n=400", 7)
	if err != nil {
		t.Fatal(err)
	}
	cyc := cycleGraph(n)
	ss := lca.NewSessionFromSource(src, lca.WithSeed(42))
	sg := lca.NewSession(cyc, lca.WithSeed(42))
	for v := 0; v < n; v += 7 {
		a, err := ss.Vertex("mis", v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sg.Vertex("mis", v)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("mis(%d): source says %v, graph says %v", v, a, b)
		}
		c, err := ss.Label("coloring", v)
		if err != nil {
			t.Fatal(err)
		}
		d, err := sg.Label("coloring", v)
		if err != nil {
			t.Fatal(err)
		}
		if c != d {
			t.Fatalf("coloring(%d): source says %d, graph says %d", v, c, d)
		}
		e1, err := ss.Edge("matching", v, (v+1)%n)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := sg.Edge("matching", v, (v+1)%n)
		if err != nil {
			t.Fatal(err)
		}
		if e1 != e2 {
			t.Fatalf("matching(%d,%d): source says %v, graph says %v", v, (v+1)%n, e1, e2)
		}
	}
	// Non-edges are rejected on source sessions too.
	if _, err := ss.Edge("matching", 0, 5); err == nil {
		t.Fatal("non-edge accepted on source session")
	}
}

func cycleGraph(n int) *lca.Graph {
	b := lca.NewGraphBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// TestSessionFromSourceBatchRefusal checks batch assembly errors cleanly
// on non-materialized sources while estimation keeps working.
func TestSessionFromSourceBatchRefusal(t *testing.T) {
	src, err := lca.OpenSource("circulant:n=5000,d=6", 7)
	if err != nil {
		t.Fatal(err)
	}
	s := lca.NewSessionFromSource(src, lca.WithSeed(3))
	if _, _, err := s.BuildVertexSet("mis"); !errors.Is(err, lca.ErrNotMaterialized) {
		t.Fatalf("BuildVertexSet on implicit source: err = %v, want ErrNotMaterialized", err)
	}
	if _, _, err := s.BuildSubgraph("matching"); !errors.Is(err, lca.ErrNotMaterialized) {
		t.Fatalf("BuildSubgraph on implicit source: err = %v, want ErrNotMaterialized", err)
	}
	if _, _, err := s.BuildLabels("coloring"); !errors.Is(err, lca.ErrNotMaterialized) {
		t.Fatalf("BuildLabels on implicit source: err = %v, want ErrNotMaterialized", err)
	}
	if s.Graph() != nil {
		t.Fatal("Graph() should be nil for implicit sources")
	}
	est, err := s.EstimateFraction("mis", 400, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if est.Fraction <= 0 || est.Fraction > 1 {
		t.Fatalf("estimate fraction %v out of range", est.Fraction)
	}
	// Edge-kind estimation via the RandomEdge capability.
	est, err = s.EstimateFraction("matching", 400, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if est.Fraction <= 0 || est.Fraction > 1 {
		t.Fatalf("edge estimate fraction %v out of range", est.Fraction)
	}
}

// TestEstimateEdgelessSourceErrors pins the panic-to-error conversion: an
// effectively edgeless random source whose edge count is unknowable in
// O(1) must fail edge-kind estimation with an error, never a panic.
func TestEstimateEdgelessSourceErrors(t *testing.T) {
	src, err := lca.OpenSource("blockrandom:n=100,d=0", 7)
	if err != nil {
		t.Fatal(err)
	}
	s := lca.NewSessionFromSource(src)
	if _, err := s.EstimateFraction("matching", 10, 0.05); err == nil {
		t.Fatal("edge estimation on an edgeless source did not error")
	}
}

// parallelMatchesSerial builds coloring's labeling with 1 and with 8
// workers under opts and fails on the first label that differs.
func parallelMatchesSerial(t *testing.T, opts ...lca.SessionOption) {
	t.Helper()
	g := lca.Gnp(600, 0.02, 13)
	build := func(workers int) []int {
		o := append([]lca.SessionOption{lca.WithSeed(99), lca.WithWorkers(workers)}, opts...)
		labels, _, err := lca.NewSession(g, o...).BuildLabels("coloring")
		if err != nil {
			t.Fatal(err)
		}
		return labels
	}
	serial, parallel := build(1), build(8)
	for v := range serial {
		if serial[v] != parallel[v] {
			t.Fatalf("label(%d): serial %d, parallel %d", v, serial[v], parallel[v])
		}
	}
}

// TestParallelLabelsDeterministic pins parallel label assembly: each of
// 8 workers builds its own oracle chain and instance, as every batch
// build does, and the labeling must be bit-identical to serial assembly.
func TestParallelLabelsDeterministic(t *testing.T) {
	parallelMatchesSerial(t)
}

// TestParallelLabelsSharedRowCacheDeterministic: under WithRowCache the 8
// workers' chains share the session's L2 row cache, and the labeling
// must still be bit-identical to serial assembly (cached rows are pure
// functions of the graph). Run under -race in CI, this doubles as the
// shared-L2 race test at the session level.
func TestParallelLabelsSharedRowCacheDeterministic(t *testing.T) {
	parallelMatchesSerial(t, lca.WithRowCache(64))
}

// TestHugeSourceBoundedAllocs is the acceptance test of the subsystem: MIS
// vertex queries and spanner edge queries against a 10^8-vertex implicit
// source allocate O(1) per query and O(1) heap overall — never O(n)
// adjacency state.
func TestHugeSourceBoundedAllocs(t *testing.T) {
	const n = 100_000_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	src, err := lca.OpenSource("ring:n=100_000_000", 7)
	if err != nil {
		t.Fatal(err)
	}
	s := lca.NewSessionFromSource(src, lca.WithSeed(2019))

	// Warm up: constructs the cached mis and spanner3 instances.
	if _, err := s.Vertex("mis", n/2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Edge("spanner3", n/3, n/3+1); err != nil {
		t.Fatal(err)
	}

	v := 1
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := s.Vertex("mis", v); err != nil {
			t.Fatal(err)
		}
		v = (v + 199_999_991) % n // coprime stride: fresh vertices each run
	})
	// An MIS query walks a short random-order recursion; each step costs a
	// handful of allocations (memo growth, interface boxing). The bound
	// fails loudly if anything O(n) — or even O(log n) per probe — creeps
	// into the query path.
	if allocs > 300 {
		t.Errorf("mis Vertex: %.0f allocs/query on n=1e8 source, want O(1)", allocs)
	}

	u := 1
	allocs = testing.AllocsPerRun(500, func() {
		if _, err := s.Edge("spanner3", u, u+1); err != nil {
			t.Fatal(err)
		}
		u = (u + 199_999_991) % (n - 1)
	})
	if allocs > 300 {
		t.Errorf("spanner3 Edge: %.0f allocs/query on n=1e8 source, want O(1)", allocs)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	// O(n) adjacency for n=1e8 would need >= 800 MB; the whole session
	// plus its memo tables must stay within a small constant footprint.
	const maxHeapGrowth = 64 << 20
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > maxHeapGrowth {
		t.Errorf("heap grew %d bytes serving a 1e8-vertex source, want < %d", growth, maxHeapGrowth)
	}
}
