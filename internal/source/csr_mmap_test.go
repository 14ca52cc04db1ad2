package source

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/rnd"
)

// skipNoMmap skips tests that need a working mmap backend.
func skipNoMmap(t *testing.T) {
	t.Helper()
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
}

// TestCSRMmapMatchesColdReader is the probe-equivalence property: over a
// spread of seeds (and so graph shapes), the mmap reader and the cold
// positioned-read reader must answer every probe of the suite's sample
// identically — Degree, every Neighbor cell plus one past the end, and
// Adjacency both for present and absent edges.
func TestCSRMmapMatchesColdReader(t *testing.T) {
	skipNoMmap(t)
	for _, seed := range []rnd.Seed{1, 7, 21, 99, 4242} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			path := writeCSRFile(t, gen.Gnp(200, 0.05, seed))
			cold, err := OpenCSR(path)
			if err != nil {
				t.Fatal(err)
			}
			defer cold.Close()
			hot, err := OpenCSRMmap(path)
			if err != nil {
				t.Fatal(err)
			}
			defer hot.Close()
			if hot.N() != cold.N() || hot.M() != cold.M() || hot.Sorted() != cold.Sorted() {
				t.Fatalf("metadata differs: n %d/%d m %d/%d sorted %v/%v",
					hot.N(), cold.N(), hot.M(), cold.M(), hot.Sorted(), cold.Sorted())
			}
			n := cold.N()
			for v := -1; v <= n; v++ { // out-of-range included
				dc, dh := cold.Degree(v), hot.Degree(v)
				if dc != dh {
					t.Fatalf("Degree(%d): mmap %d, cold %d", v, dh, dc)
				}
				for i := 0; i <= dc; i++ {
					if wc, wh := cold.Neighbor(v, i), hot.Neighbor(v, i); wc != wh {
						t.Fatalf("Neighbor(%d,%d): mmap %d, cold %d", v, i, wh, wc)
					}
				}
				if v < 0 || v >= n {
					continue
				}
				for _, u := range []int{0, (v + 1) % n, (v * 13) % n} {
					if ac, ah := cold.Adjacency(v, u), hot.Adjacency(v, u); ac != ah {
						t.Fatalf("Adjacency(%d,%d): mmap %d, cold %d", v, u, ah, ac)
					}
				}
				// Every actual neighbour: the found branch, at each position.
				for i := 0; i < dc; i++ {
					w := cold.Neighbor(v, i)
					if ac, ah := cold.Adjacency(v, w), hot.Adjacency(v, w); ac != ah || ah < 0 {
						t.Fatalf("Adjacency(%d,%d): mmap %d, cold %d", v, w, ah, ac)
					}
				}
			}
		})
	}
}

// TestCSRMmapCloseUnmapsOnce pins the teardown contract: Close is
// idempotent, the mapping is released exactly once (the data slice is
// dropped on the first call), and racing closers all see the first
// result.
func TestCSRMmapCloseUnmapsOnce(t *testing.T) {
	skipNoMmap(t)
	c, err := OpenCSRMmap(writeCSRFile(t, gen.Gnp(80, 0.1, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if c.Degree(5) < 0 {
		t.Fatal("probe before close failed")
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("racing Close %d: %v", i, err)
		}
	}
	if c.data != nil {
		t.Fatal("mapping still referenced after Close")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close after Close: %v (must be idempotent)", err)
	}
}

// TestCSRMmapLocalityCounters pins the LocalityReporter accounting: every
// load is either a page touch or a local hit, a same-page re-probe counts
// local, and the counters only ever grow.
func TestCSRMmapLocalityCounters(t *testing.T) {
	skipNoMmap(t)
	c, err := OpenCSRMmap(writeCSRFile(t, gen.Gnp(120, 0.08, 11)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.PageTouches() != 0 || c.LocalHits() != 0 {
		t.Fatalf("fresh mapping reports touches=%d local=%d", c.PageTouches(), c.LocalHits())
	}
	c.Degree(3)
	if c.PageTouches() == 0 {
		t.Fatal("first probe did not count a page touch")
	}
	pt, lh := c.PageTouches(), c.LocalHits()
	c.Degree(3) // identical offset: must count as a local hit
	if c.LocalHits() != lh+1 || c.PageTouches() != pt {
		t.Fatalf("same-page re-probe: touches %d->%d local %d->%d",
			pt, c.PageTouches(), lh, c.LocalHits())
	}
	for v := 0; v < c.N(); v++ {
		d := c.Degree(v)
		for i := 0; i < d; i++ {
			c.Neighbor(v, i)
		}
	}
	if c.PageTouches()+c.LocalHits() <= pt+lh {
		t.Fatal("probing did not advance the locality counters")
	}
	if _, ok := LocalityOf(c); !ok {
		t.Fatal("CSRMmap does not surface the LocalityReporter capability")
	}
}

// localityModel replays LocalityReporter's per-load definition: a load
// on the page of the load before it is a local hit, any other load a page
// touch.
type localityModel struct {
	last          int64
	touches, hits uint64
}

func (m *localityModel) load(pos int64) {
	if page := pos >> csrPageShift; page == m.last {
		m.hits++
	} else {
		m.touches++
		m.last = page
	}
}

// hubGraph has four hubs joined to every other vertex, rows of about
// 2000 cells (8 KB, spanning two or three 4 KiB pages), and a path
// through the rest, whose rows are a few cells long.
func hubGraph(n int) *graph.Builder {
	b := graph.NewBuilder(n)
	for h := 0; h < 4; h++ {
		for v := 4; v < n; v++ {
			b.AddEdge(h, v)
		}
	}
	for v := 4; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b
}

// TestCSRMmapLocalityPerLoad pins the counts each probe publishes to the
// per-load definition, exactly, for a sequential caller. The model loads
// the probe's offset pair, then each cell the probe reads: the row
// prefix up to the first match on a shuffled file, the binary-search path
// on a sorted one. Rows span several pages, so scans cross page
// boundaries. Every row is also asked for targets with a low byte of 0,
// and in shuffled-repeat one hub row holds such a target twice: the scan
// reads up to its first copy. AdjacencyEach is asked the same targets in
// lists, short (target by target) and long (one pass, and on hub rows
// more than one chunk), with and without first, on every probed row, the
// empty row of vertex emptyRow and out-of-range vertices: its answers
// must be the scalar probes' and its counts the model's loads of those
// probes, in order.
func TestCSRMmapLocalityPerLoad(t *testing.T) {
	skipNoMmap(t)
	const n, emptyRow = 2100, 5
	shuffled := rowsOf(hubGraph(n).BuildShuffled(rnd.NewPRG(5)))
	repeat := rowsOf(hubGraph(n).BuildShuffled(rnd.NewPRG(6)))
	if first := slices.Index(repeat[0], 1024); first < 0 || first > len(repeat[0])-2 {
		t.Fatalf("hub row 0 has 1024 at %d, not before its last cell", first)
	}
	repeat[0][len(repeat[0])-1] = 1024 // replaces one neighbour; rows need not be symmetric
	sorted := rowsOf(hubGraph(n).Build())
	for _, rows := range [][][]int{shuffled, sorted, repeat} {
		rows[emptyRow] = nil // drops a path vertex's row; it is probed only below
	}
	for _, tc := range []struct {
		name   string
		rows   [][]int
		sorted bool
	}{
		{"shuffled", shuffled, false},
		{"sorted", sorted, true},
		{"shuffled-repeat", repeat, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := OpenCSRMmap(writeRowsFile(t, tc.rows))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if c.Sorted() != tc.sorted {
				t.Fatalf("file sorted=%v, want %v", c.Sorted(), tc.sorted)
			}
			rows := tc.rows
			start := make([]int64, n+1) // row v is cells [start[v], start[v+1])
			for v := 0; v < n; v++ {
				start[v+1] = start[v] + int64(len(rows[v]))
			}
			m := localityModel{last: -1}
			check := func(probe string) {
				t.Helper()
				if c.PageTouches() != m.touches || c.LocalHits() != m.hits {
					t.Fatalf("%s: touches=%d local=%d, per-load model %d/%d",
						probe, c.PageTouches(), c.LocalHits(), m.touches, m.hits)
				}
			}
			// model replays the loads of Adjacency(v, w) and returns its
			// answer.
			model := func(v, w int) int {
				if v < 0 || v >= n {
					return -1
				}
				want := slices.Index(rows[v], w)
				m.load(c.h.OffsetPos(int64(v)))
				lo, hi := start[v], start[v+1]
				if c.Sorted() {
					for lo < hi {
						mid := (lo + hi) / 2
						m.load(c.h.NeighborPos(mid))
						if rows[v][mid-start[v]] < w {
							lo = mid + 1
						} else {
							hi = mid
						}
					}
					if lo < start[v+1] {
						m.load(c.h.NeighborPos(lo))
					}
				} else {
					last := hi - 1
					if want >= 0 {
						last = start[v] + int64(want)
					}
					for i := lo; i <= last; i++ {
						m.load(c.h.NeighborPos(i))
					}
				}
				return want
			}
			adjacency := func(v, w int) {
				t.Helper()
				want := model(v, w)
				if got := c.Adjacency(v, w); got != want {
					t.Fatalf("Adjacency(%d,%d) = %d, want %d", v, w, got, want)
				}
				check(fmt.Sprintf("Adjacency(%d,%d)", v, w))
			}
			each := func(u int, vs []int) {
				t.Helper()
				for _, first := range []bool{false, true} {
					var want []int
					for _, w := range vs {
						want = append(want, model(u, w))
						if first && want[len(want)-1] >= 0 {
							break
						}
					}
					idx := make([]int, len(vs))
					got := c.AdjacencyEach(u, vs, idx, first)
					if got != len(want) || !slices.Equal(idx[:got], want) {
						t.Fatalf("AdjacencyEach(%d, %v, first=%v) = %v (%d answered), scalar %v",
							u, vs, first, idx[:got], got, want)
					}
					check(fmt.Sprintf("AdjacencyEach(%d, %v, first=%v)", u, vs, first))
				}
			}
			// lists returns target lists for row v: none; short ones
			// (answered target by target) and long ones (in one pass),
			// each opening with misses, so that first mode reads past
			// them, then cells of the row (a repeat among them),
			// low-byte-0 targets and targets outside the cell range; and
			// every fiftieth cell, 41 targets on a hub row (two chunks).
			lists := func(v int) [][]int {
				var cells []int
				if d := len(rows[v]); d > 0 {
					cells = []int{rows[v][d-1], rows[v][d/2], rows[v][0], rows[v][d/2]}
				}
				short := append([]int{v, -1}, cells[:min(len(cells), 2)]...)
				long := append([]int{v, math.MaxInt, 256}, cells...)
				long = append(long, 1024, 2048, -1, v)
				var spread []int
				for i := 0; i < len(rows[v]); i += 50 {
					spread = append(spread, rows[v][i])
				}
				return [][]int{nil, short, long, append(spread, v, 1<<32)}
			}
			for _, v := range []int{0, 3, 4, n / 2, n - 1} {
				d := len(rows[v])
				for rep := 0; rep < 2; rep++ { // the repeat stays on its page
					m.load(c.h.OffsetPos(int64(v)))
					if got := c.Degree(v); got != d {
						t.Fatalf("Degree(%d) = %d, want %d", v, got, d)
					}
					check(fmt.Sprintf("Degree(%d)", v))
				}
				for _, i := range []int{0, d / 2, d - 1, d, -1} {
					m.load(c.h.OffsetPos(int64(v)))
					want := -1
					if i >= 0 && i < d {
						m.load(c.h.NeighborPos(start[v] + int64(i)))
						want = rows[v][i]
					}
					if got := c.Neighbor(v, i); got != want {
						t.Fatalf("Neighbor(%d,%d) = %d, want %d", v, i, got, want)
					}
					check(fmt.Sprintf("Neighbor(%d,%d)", v, i))
				}
				for _, i := range []int{0, d / 2, d - 1} {
					adjacency(v, rows[v][i])
				}
				for _, w := range []int{256, 1024, 2048} { // low byte 0
					adjacency(v, w)
				}
				adjacency(v, v)           // no self-loops: a miss reads the whole row
				adjacency(v, -1)          // below every cell
				adjacency(v, math.MaxInt) // above every cell
				for _, vs := range lists(v) {
					each(v, vs)
				}
			}
			adjacency(emptyRow, 0) // loads the offsets only
			for _, u := range []int{emptyRow, -1, n} {
				for _, vs := range lists(0) {
					each(u, vs)
				}
			}
			// Out-of-range vertices load nothing.
			c.Degree(-1)
			c.Neighbor(n, 0)
			c.Adjacency(n, 0)
			check("out-of-range probes")
		})
	}
}

// rowsOf returns g's adjacency rows in probe order.
func rowsOf(g *graph.Graph) [][]int {
	rows := make([][]int, g.N())
	for v := range rows {
		rows[v] = make([]int, g.Degree(v))
		for i := range rows[v] {
			rows[v][i] = g.Neighbor(v, i)
		}
	}
	return rows
}

// writeRowsFile writes rows as a CSR file cell for cell, repeats
// included, and returns its path.
func writeRowsFile(t *testing.T, rows [][]int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rows.csr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = graph.WriteCSRStream(f, len(rows),
		func(v int) int { return len(rows[v]) },
		func(v, i int) int { return rows[v][i] })
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCSRMmapRejectsBadFiles mirrors the cold reader's open-time
// validation.
func TestCSRMmapRejectsBadFiles(t *testing.T) {
	skipNoMmap(t)
	if _, err := OpenCSRMmap("/nonexistent/no.csr"); err == nil {
		t.Fatal("opened a nonexistent file")
	}
	path := writeCSRFile(t, gen.Gnp(40, 0.1, 2))
	if src, err := Parse("csr:"+path+"?mmap=1", 0); err != nil {
		t.Fatalf("mmap spec failed on a good file: %v", err)
	} else {
		if _, ok := src.(*CSRMmap); !ok {
			t.Fatalf("csr:...?mmap=1 opened %T, want *CSRMmap", src)
		}
		_ = src.(Closer).Close()
	}
}

// TestCSRSpecKnobErrors drives the csr: query grammar table-style: every
// malformed knob must be rejected with an error naming the offending
// token — a typo must never degrade into a silently ignored knob — while
// the well-formed spellings open the right reader.
func TestCSRSpecKnobErrors(t *testing.T) {
	path := writeCSRFile(t, gen.Gnp(30, 0.1, 5))
	bad := []struct {
		spec    string
		wantSub string // the rejected token, quoted in the error
	}{
		{"csr:" + path + "?bogus=1", `unknown csr knob "bogus"`},
		{"csr:" + path + "?mmap=1&bogus=2", `unknown csr knob "bogus"`},
		{"csr:" + path + "?mmap", `csr knob "mmap": want knob=value`},
		{"csr:" + path + "?=1", `csr knob "=1": want knob=value`},
		{"csr:" + path + "?", `csr knob "": want knob=value`},
		{"csr:" + path + "?mmap=1&mmap=0", `csr knob "mmap" given more than once`},
		{"csr:" + path + "?mmap=yes", `csr knob mmap="yes": want 0 or 1`},
		{"csr:" + path + "?mmap=", `csr knob mmap="": want 0 or 1`},
	}
	for _, tc := range bad {
		_, err := Parse(tc.spec, 0)
		if err == nil {
			t.Errorf("Parse(%q) accepted a malformed knob", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q) error %q does not name the token, want substring %q", tc.spec, err, tc.wantSub)
		}
	}
	// mmap=0 is the explicit cold spelling; it must open the cold reader
	// even where mmap is available.
	src, err := Parse("csr:"+path+"?mmap=0", 0)
	if err != nil {
		t.Fatalf("mmap=0: %v", err)
	}
	if _, ok := src.(*CSR); !ok {
		t.Fatalf("csr:...?mmap=0 opened %T, want the cold *CSR", src)
	}
	_ = src.(Closer).Close()
}

// TestOpenCSRSpecMmapFallback pins the spec contract on platforms
// without mmap: ?mmap=1 must degrade to the cold reader, not error. On
// platforms with mmap this asserts the error-wrapping convention instead.
func TestOpenCSRSpecMmapFallback(t *testing.T) {
	if mmapSupported {
		err := fmt.Errorf("wrapped: %w", ErrMmapUnsupported)
		if !errors.Is(err, ErrMmapUnsupported) {
			t.Fatal("ErrMmapUnsupported does not survive wrapping")
		}
		t.Skip("mmap supported here; the fallback path runs on !unix builds")
	}
	path := writeCSRFile(t, gen.Gnp(40, 0.1, 2))
	src, err := Parse("csr:"+path+"?mmap=1", 0)
	if err != nil {
		t.Fatalf("mmap=1 must fall back to the cold reader, got %v", err)
	}
	if _, ok := src.(*CSR); !ok {
		t.Fatalf("fallback opened %T, want the cold *CSR", src)
	}
	_ = src.(Closer).Close()
}

// BenchmarkScanCellsEach prices one row's Adjacency targets answered by
// one scanCells search per target (scalar) against one scanCellsEach
// pass for all of them (each), over 64 rows of 200 vertex IDs below
// 20000, the shape of a dense Gnp row, with 64 target lists drawn from
// the same range (mostly misses, as in a spanner's coverage scan). The
// target count where each starts to win is eachMin.
func BenchmarkScanCellsEach(b *testing.B) {
	prg := rnd.NewPRG(7)
	draw := func(k int) []int {
		vs := make([]int, k)
		for i := range vs {
			vs[i] = prg.Intn(20000)
		}
		return vs
	}
	var rows [64][]byte
	for r := range rows {
		cells := make([]uint32, 200)
		for i, v := range draw(len(cells)) {
			cells[i] = uint32(v)
		}
		rows[r] = cellBytes(cells...)
	}
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32} {
		var lists [64][]int
		for r := range lists {
			lists[r] = draw(m)
		}
		idx := make([]int, m)
		b.Run(fmt.Sprintf("targets=%d/scalar", m), func(b *testing.B) {
			for i := range b.N {
				row := rows[i%64]
				for k, v := range lists[i/64%64] {
					idx[k], _ = scanCells(row, v)
				}
			}
		})
		b.Run(fmt.Sprintf("targets=%d/each", m), func(b *testing.B) {
			for i := range b.N {
				scanCellsEach(rows[i%64], lists[i/64%64], idx)
			}
		})
	}
}
