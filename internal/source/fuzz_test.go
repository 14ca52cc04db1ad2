package source

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

// fuzzSeedSpecs is the checked-in corpus (mirrored under
// testdata/fuzz/FuzzParse): every family, the alias and separator forms,
// and the malformed shapes past bugs hid in.
var fuzzSeedSpecs = []string{
	"ring:n=100",
	"cycle:n=1_000",
	"ring:n=1e6",
	"ring:n=5e9",
	"ring:",
	"ring",
	"grid:rows=3,cols=7",
	"grid:rows=1e5,cols=1e5",
	"grid:rows=3000000000,cols=3000000000",
	"torus:rows=4,cols=4",
	"torus:rows=0,cols=9",
	"circulant:n=50,d=6",
	"circulant:n=50,d=6,seed=9",
	"circulant:n=9,d=3",
	"blockrandom:n=500,d=4",
	"blockrandom:n=500,d=4,block=32",
	"blockrandom:n=500,d=NaN",
	"blockrandom:n=500,d=-3",
	"blockrandom:n=500,d=4,block=999999999",
	"edgelist:/nonexistent/g.txt",
	"csr:/nonexistent/g.csr",
	"csr:/nonexistent/g.csr?mmap=1",
	"csr:/nonexistent/g.csr?mmap=0",
	"csr:/nonexistent/g.csr?bogus=1",
	"csr:/nonexistent/g.csr?mmap=1&mmap=0",
	"csr:/nonexistent/g.csr?mmap",
	"csr:/nonexistent/g.csr?mmap=yes",
	"csr:?mmap=1",
	"warp:n=10",
	"ring:n=10,n=20",
	"ring:n=10,z=1",
	"ring:n=,",
	"ring:n==5",
	"ring:seed=3",
	"sharded:ring:n=5,ring:n=5",
	"sharded:cache=64;grid:rows=2,cols=3;grid:rows=2,cols=3",
	"sharded:ring:n=5;ring:n=6",
	"sharded:",
	"sharded:cache=10",
	"sharded:sharded:ring:n=4,ring:n=4",
	"  ring:n=8  ",
	"::::",
	"=",
	"ring:n=+5",
	"ring:n=0x10",
}

// fuzzSafeSpec reports whether a generated spec is safe to open during
// fuzzing: no network dials (remote:) and no reads of pre-existing or
// special files (a generated "/dev/zero" must not be opened as an edge
// list). Nonexistent paths are fine — Parse fails fast on them.
func fuzzSafeSpec(spec string, depth int) bool {
	if depth > 4 {
		return false
	}
	s := strings.TrimSpace(spec)
	name, rest, ok := strings.Cut(s, ":")
	if !ok {
		name, rest = "edgelist", s
	}
	canon := name
	if a, isAlias := aliases[canon]; isAlias {
		canon = a
	}
	switch {
	case canon == "remote":
		return false
	case canon == "sharded":
		for _, item := range splitShardSpecs(rest) {
			item = strings.TrimSpace(item)
			if item == "" || strings.HasPrefix(item, "cache=") {
				continue
			}
			if !fuzzSafeSpec(item, depth+1) {
				return false
			}
		}
		return true
	case pathFamilies[canon]:
		st, err := os.Stat(rest)
		if err != nil {
			return true // nonexistent: Parse errors without reading anything
		}
		return st.Mode().IsRegular() && st.Size() < 1<<20
	}
	return true
}

// FuzzParse fuzzes the spec grammar: Parse must never panic, never hand
// back a source outside the supported vertex range, and every opened
// source must answer a probe round and close idempotently. Malformed
// specs must fail with an error that names the offending input.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeedSpecs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if !fuzzSafeSpec(spec, 0) {
			t.Skip()
		}
		src, err := Parse(spec, 7)
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("Parse(%q): empty error message", spec)
			}
			return
		}
		n := src.N()
		if n < 0 || n > MaxVertices {
			t.Fatalf("Parse(%q): n=%d outside [0,%d]", spec, n, MaxVertices)
		}
		if n > 0 {
			v := n / 2
			d := src.Degree(v)
			if d < 0 || d >= n {
				t.Fatalf("Parse(%q): Degree(%d)=%d outside [0,%d)", spec, v, d, n)
			}
			if w := src.Neighbor(v, d); w != -1 {
				t.Fatalf("Parse(%q): Neighbor(%d,deg)=%d, want -1", spec, v, w)
			}
			if d > 0 {
				w := src.Neighbor(v, 0)
				if w < 0 || w >= n {
					t.Fatalf("Parse(%q): Neighbor(%d,0)=%d out of range", spec, v, w)
				}
				if idx := src.Adjacency(v, w); idx != 0 {
					t.Fatalf("Parse(%q): Adjacency(%d,%d)=%d, want 0", spec, v, w, idx)
				}
			}
		}
		if c, ok := src.(Closer); ok {
			if err := c.Close(); err != nil {
				t.Fatalf("Parse(%q): Close: %v", spec, err)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("Parse(%q): second Close: %v (not idempotent)", spec, err)
			}
		}
	})
}

// scanCellsReference is the cell-by-cell loop scanCells replaced: the
// index of the first cell equal to v and the cells read to find it.
func scanCellsReference(row []byte, v int) (idx, read int) {
	read = len(row) / 4
	if want := uint32(v); int(want) == v {
		for i := 0; len(row) >= 4; i++ {
			if binary.LittleEndian.Uint32(row) == want {
				return i, i + 1
			}
			row = row[4:]
		}
	}
	return -1, read
}

// cellBytes encodes cells as a row of the CSR file's little-endian
// uint32 neighbor cells.
func cellBytes(cells ...uint32) []byte {
	row := make([]byte, 0, 4*len(cells))
	for _, c := range cells {
		row = binary.LittleEndian.AppendUint32(row, c)
	}
	return row
}

// FuzzCSRMmapAdjacency fuzzes the kernels behind CSRMmap's Adjacency
// probes on unsorted rows: over any row bytes (a trailing partial cell
// included) and any target, scanCells must return the index and the read
// count of the cell-by-cell reference, since the read count is what the
// probe's locality accounting records. The same input drives the
// one-pass kernel, scanCellsEach, over a target list built from v, cells
// of the row (up to 40, so long rows take more than one chunk), v again
// and targets outside the cell range; every index, and the read count
// cellsRead derives from it, must equal the reference's for that target.
// The seeds cover targets outside the cell range, a low byte of 0,
// repeated targets, matches that start off a cell boundary and a row of
// more than eachChunk distinct cells.
func FuzzCSRMmapAdjacency(f *testing.F) {
	straddle := []byte{0xaa, 0x01, 0x02, 0x03, 0x04, 0xbb, 0xcc, 0xdd, 0x01, 0x02, 0x03, 0x04}
	for _, s := range []struct {
		row []byte
		v   int64
	}{
		{nil, 0},
		{cellBytes(7), 7},
		{cellBytes(5, 9, 11), -1},
		{cellBytes(5, 9, 11), math.MinInt64},
		{cellBytes(5, 9, 11), 1<<32 + 9},            // the low 32 bits match a cell
		{cellBytes(1<<32-1, 3), 1<<32 - 1},          // the largest cell
		{cellBytes(3, 512, 256, 0, 256), 256},       // low byte 0
		{cellBytes(1, 0x100, 0x10000, 0), 0},        // zero bytes everywhere
		{cellBytes(4, 8, 15, 16, 23, 42, 8, 15), 8}, // present twice
		{cellBytes(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20), 19},
		{straddle, 0x04030201},                          // off-boundary match first
		{straddle[:7], 0x04030201},                      // straddles the partial tail
		{[]byte{1, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0}, 0}, // two off-boundary zero runs
		{append(cellBytes(3, 3, 3), 0, 0, 0), 3},        // trailing partial cell
		{cellBytes(longRow...), 39},                     // two chunks of targets
	} {
		f.Add(s.row, s.v)
	}
	f.Fuzz(func(t *testing.T, row []byte, v int64) {
		idx, read := scanCells(row, int(v))
		wantIdx, wantRead := scanCellsReference(row, int(v))
		if idx != wantIdx || read != wantRead {
			t.Fatalf("scanCells(% x, %d) = (%d, %d), cell-by-cell (%d, %d)", row, v, idx, read, wantIdx, wantRead)
		}
		vs := []int{int(v)}
		for i := 0; i+4 <= len(row) && i < 4*40; i += 4 {
			vs = append(vs, int(binary.LittleEndian.Uint32(row[i:])))
		}
		vs = append(vs, int(v), -1, 1<<32)
		each := make([]int, len(vs))
		scanCellsEach(row, vs, each)
		for k, w := range vs {
			wantIdx, wantRead := scanCellsReference(row, w)
			if each[k] != wantIdx || cellsRead(each[k], len(row)/4) != wantRead {
				t.Fatalf("scanCellsEach(% x, %v)[%d] = %d (read %d), cell-by-cell (%d, %d)",
					row, vs, k, each[k], cellsRead(each[k], len(row)/4), wantIdx, wantRead)
			}
		}
	})
}

// longRow is 40 distinct cells, some with a low byte of 0.
var longRow = func() []uint32 {
	cells := make([]uint32, 40)
	for i := range cells {
		cells[i] = uint32(i * 251 % 1031 << (i % 3 * 4))
	}
	return cells
}()

// FuzzRemoteFetchRows fuzzes the one batched answer a client decodes:
// Remote's rowfull path. A loopback shard serves an honest /probe/meta
// for Ring(30) and answers POST /probe with the fuzzed bytes. FetchRows
// of vertices 0 and 5 must fail with a *ProbeError, or return one row
// per vertex with every cell in [0,30); it must never panic. The shard
// starts once per fuzz process, and each input swaps its body in.
func FuzzRemoteFetchRows(f *testing.F) {
	const n = 30
	var body atomic.Pointer[[]byte]
	honest := NewProbeHandler(Ring(n))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			honest.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(*body.Load())
	}))
	f.Cleanup(ts.Close)
	src, err := OpenRemote(ts.URL, WithRetries(0))
	if err != nil {
		f.Fatal(err)
	}
	rf, _ := RowFetcherOf(src)
	honestBody := []byte(`{"answers":[2,2],"rows":[[1,29],[4,6]]}`)
	body.Store(&honestBody)
	if rows, err := rf.FetchRows([]int{0, 5}); err != nil || fmt.Sprint(rows) != "[[1 29] [4 6]]" {
		f.Fatalf("the honest answer decoded as %v, %v", rows, err)
	}
	for _, seed := range []string{
		string(honestBody),
		`{"answers":[2],"rows":[[1,29],[4,6]]}`,
		`{"answers":[2,2],"rows":[[1,29,3],[4,6]]}`,
		`{"answers":[2,2],"rows":[[-1,29],[4,6]]}`,
		`{"answers":[2,2],"rows":[[1,29],[4,30]]}`,
		`{"answers":[-1,2],"rows":[[],[4,6]]}`,
		`{"answers":[9223372036854775807,2],"rows":[[1,29],[4,6]]}`,
		`{"answers":[2,2],"rows":null}`,
		`{"answers":[2,2],"rows":[[1,29],[4,6]]}garbage`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		body.Store(&b)
		rows, err := rf.FetchRows([]int{0, 5})
		if err != nil {
			var pe *ProbeError
			if !errors.As(err, &pe) {
				t.Fatalf("FetchRows failed with %T (%v), want a *ProbeError", err, err)
			}
			return
		}
		if len(rows) != 2 {
			t.Fatalf("FetchRows of 2 vertices answered %d rows", len(rows))
		}
		for i, row := range rows {
			for _, w := range row {
				if w < 0 || w >= n {
					t.Fatalf("row %d holds %d, outside [0,%d): %v", i, w, n, rows)
				}
			}
		}
	})
}
