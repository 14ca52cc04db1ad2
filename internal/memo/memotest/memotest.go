// Package memotest holds the fixtures that the greedy LCAs' tests of
// their vertex tables share: a view that keeps a table a map, a query
// order, a CSR file holding neighbor IDs outside the graph, and an
// allocation count for queries over a switched table.
package memotest

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lca/internal/graph"
	"lca/internal/oracle"
	"lca/internal/rnd"
	"lca/internal/source"
)

// View is an oracle whose N() reports Size and which has none of the
// wrapped oracle's optional capabilities. Over a View of Size 1<<40 an
// instance's table never holds n/16 answers, so it stays a map.
type View struct {
	oracle.Oracle
	Size int
}

// N implements oracle.Oracle.
func (v View) N() int { return v.Size }

// TwicePermuted is every vertex of [0, n) in random order, twice over.
func TwicePermuted(n int) []int {
	prg := rnd.NewPRG(3)
	return append(prg.Perm(n), prg.Perm(n)...)
}

// CorruptCSR maps g's CSR file with the first cell of each row in rows
// rewritten to an ID ≥ n, as a damaged file decodes it: n+u for row u,
// and the largest cell for the last row. Every row in rows must be
// non-empty. It returns the source and the rewritten IDs, and skips the
// test where files cannot be mapped.
func CorruptCSR(t testing.TB, g *graph.Graph, rows []int) (*source.CSRMmap, []int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.csr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := graph.WriteCSR(f, g); err != nil {
		t.Fatal(err)
	}
	h, err := graph.ReadCSRHeader(f)
	if err != nil {
		t.Fatal(err)
	}
	var bad []int
	var b [8]byte
	for k, u := range rows {
		if _, err := f.ReadAt(b[:], h.OffsetPos(int64(u))); err != nil {
			t.Fatal(err)
		}
		x := uint32(g.N() + u)
		if k == len(rows)-1 {
			x = math.MaxUint32
		}
		bad = append(bad, int(x))
		binary.LittleEndian.PutUint32(b[:4], x)
		if _, err := f.WriteAt(b[:4], h.NeighborPos(int64(binary.LittleEndian.Uint64(b[:])))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := source.OpenCSRMmap(path)
	if errors.Is(err, source.ErrMmapUnsupported) {
		t.Skip(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src, bad
}

// AllocsAfterSwitch answers vertices 0, 1, ... of g with query until
// sliced reports that the instance's table has switched, then returns
// the allocations per query over the next 2000 fresh vertices
// (testing.AllocsPerRun). g needs at least n/16 + 2001 vertices beyond
// those the switch takes.
func AllocsAfterSwitch(g *graph.Graph, query func(v int), sliced func() bool) float64 {
	v := 0
	for ; !sliced() && v < g.N(); v++ {
		query(v)
	}
	return testing.AllocsPerRun(2000, func() {
		query(v)
		v++
	})
}
