package lca_test

// Acceptance tests for the hot local path: the tiered row caches (L1
// arena-backed per-chain store, shared bounded L2) must keep the whole
// session inside the same O(1)-per-query, bounded-heap envelope the
// plain probe path already honors — the caches trade probes for memory,
// but only a fixed amount of it. Companion per-probe pins (zero allocs
// on the implicit and mmap scalar probe paths) live in
// internal/source/alloc_test.go and internal/oracle/rowcache_test.go;
// this file holds the public-API end of the contract.

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lca"
	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/source"
)

// TestTieredSessionBoundedHeap runs the TestHugeSourceBoundedAllocs
// workload through a WithRowCache session: mis vertex queries and
// spanner3 edge queries over a 10^8-vertex implicit source, striding
// across the vertex set so the caches keep evicting and the L1 arena
// keeps resetting. Allocations per query stay O(1) and total heap
// growth stays under the subsystem's 64 MB bound — the arena abandons
// overflowed blocks to the GC instead of pinning them, and the L2
// recycles evicted row buffers instead of leaking them.
func TestTieredSessionBoundedHeap(t *testing.T) {
	const n = 100_000_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	src, err := lca.OpenSource("ring:n=100_000_000", 7)
	if err != nil {
		t.Fatal(err)
	}
	s := lca.NewSessionFromSource(src, lca.WithSeed(2019), lca.WithRowCache(4096))

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
		v = (v + 199_999_991) % n // coprime stride: fresh vertices, cold caches
	})
	if allocs > 300 {
		t.Errorf("mis Vertex through row cache: %.0f allocs/query, want O(1)", allocs)
	}

	u := 1
	allocs = testing.AllocsPerRun(500, func() {
		if _, err := s.Edge("spanner3", u, u+1); err != nil {
			t.Fatal(err)
		}
		u = (u + 199_999_991) % (n - 1)
	})
	if allocs > 300 {
		t.Errorf("spanner3 Edge through row cache: %.0f allocs/query, want O(1)", allocs)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	// Same bound as the cache-free path: the L1 store caps its row count
	// and the L2 caps its slots, so tiering a 1e8-vertex source must not
	// cost more than a small constant footprint.
	const maxHeapGrowth = 64 << 20
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > maxHeapGrowth {
		t.Errorf("heap grew %d bytes with row caches on, want < %d", growth, maxHeapGrowth)
	}
}

// TestTieredSessionAnswersUnchanged pins the semantic half of the cache
// contract on the public API: a WithRowCache session (with and without
// prefetch stacked above it) answers exactly what the plain session
// answers, with identical probe counts in the session stats.
func TestTieredSessionAnswersUnchanged(t *testing.T) {
	src := func() lca.Source {
		s, err := lca.OpenSource("circulant:n=3000,d=6,seed=11", 7)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain := lca.NewSessionFromSource(src(), lca.WithSeed(42))
	tiered := lca.NewSessionFromSource(src(), lca.WithSeed(42), lca.WithRowCache(256))
	both := lca.NewSessionFromSource(src(), lca.WithSeed(42), lca.WithRowCache(256), lca.WithPrefetch(true))

	for i := 0; i < 120; i++ {
		v := (i * 977) % 3000
		want, err := plain.Vertex("mis", v)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*lca.Session{"tiered": tiered, "tiered+prefetch": both} {
			got, err := s.Vertex("mis", v)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: mis(%d) = %v, plain session says %v", name, v, got, want)
			}
		}
	}
	// The tiered chain must not change how many probes the algorithm
	// issues — caches sit below the oracle's counter, not above it.
	ps, err := plain.ProbeStats("mis")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiered.ProbeStats("mis")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Total() != ts.Total() {
		t.Errorf("probe counts diverge: plain %d, tiered %d", ps.Total(), ts.Total())
	}
}

// TestAttestedSessionReportsLocality: an attested mmap source keeps its
// page locality visible — a Session over NewAttested(OpenCSRMmap(...))
// reports exactly the page touches and local hits the mapped file
// counted under its queries, with prefetch on and off. The attesting
// wrapper carries locality only through its dynamic capability view.
func TestAttestedSessionReportsLocality(t *testing.T) {
	g, err := gen.RandomRegular(2000, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteCSR(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, prefetch := range []bool{false, true} {
		mm, err := source.OpenCSRMmap(path)
		if errors.Is(err, source.ErrMmapUnsupported) {
			t.Skip(err)
		}
		if err != nil {
			t.Fatal(err)
		}
		s := lca.NewSessionFromSource(source.NewAttested(mm), lca.WithSeed(7), lca.WithPrefetch(prefetch))
		pages0, local0 := mm.PageTouches(), mm.LocalHits()
		for v := 0; v < 2000; v += 40 {
			if _, err := s.Vertex("mis", v); err != nil {
				t.Fatal(err)
			}
		}
		ps, err := s.ProbeStats("mis")
		if err != nil {
			t.Fatal(err)
		}
		pages, local := mm.PageTouches()-pages0, mm.LocalHits()-local0
		if pages == 0 {
			t.Fatalf("prefetch=%v: the mapped file counted no page touches", prefetch)
		}
		if ps.PageTouches != pages || ps.LocalHits != local {
			t.Errorf("prefetch=%v: session reports page_touches=%d local_hits=%d, the mapped file counted %d and %d",
				prefetch, ps.PageTouches, ps.LocalHits, pages, local)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
