package main

import (
	"bufio"
	"os"
	"path/filepath"
	"testing"

	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/source"
)

// The traced run's shim must be a conforming Source over each backend it
// wraps: the implicit circulant of the served workloads and the mmap CSR
// of spanner-dense.
func TestShimConformance(t *testing.T) {
	t.Run("circulant", func(t *testing.T) {
		source.TestConformance(t, func(t testing.TB) source.Source {
			src, err := source.Parse("circulant:n=1000000,d=8", 7)
			if err != nil {
				t.Fatal(err)
			}
			return newShim(src)
		})
	})
	t.Run("csr-mmap", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "g.csr")
		writeCSRFile(t, path, gen.Gnp(300, 0.05, 3))
		source.TestConformance(t, func(t testing.TB) source.Source {
			src, err := source.Parse("csr:"+path+"?mmap=1", 7)
			if err != nil {
				t.Fatal(err)
			}
			return newShim(src)
		})
	})
}

func TestShimForwardsCapabilitiesAndCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.csr")
	writeCSRFile(t, path, gen.Gnp(200, 0.05, 5))
	src, err := source.Parse("csr:"+path+"?mmap=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	sh := newShim(src)
	defer sh.Close()
	ec, ok := source.EdgeCounterOf(sh)
	if want, _ := source.EdgeCounterOf(src); !ok || ec.M() != want.M() {
		t.Fatalf("shim hides or changes the edge count")
	}
	if _, ok := source.DegreeBounderOf(sh); ok {
		t.Fatalf("shim invents a degree bound the CSR source lacks")
	}
	sh.Degree(0)
	sh.Neighbor(0, 0)
	sh.Adjacency(0, 1)
	lr, ok := source.LocalityOf(sh)
	if !ok || lr.PageTouches()+lr.LocalHits() == 0 {
		t.Fatalf("shim does not forward the mmap source's locality counters")
	}
	if sh.PageTouches() != lr.PageTouches() || sh.LocalHits() != lr.LocalHits() {
		t.Fatalf("static and dynamic locality views disagree")
	}
	if calls, _ := sh.flush(); calls != 3 {
		t.Fatalf("shim counted %d calls, want 3", calls)
	}
	if calls, ns := sh.flush(); calls != 0 || ns != 0 {
		t.Fatalf("flush did not reset the counters")
	}
}

func writeCSRFile(t *testing.T, path string, g *graph.Graph) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	if err := graph.WriteCSR(w, g); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
