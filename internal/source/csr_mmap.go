package source

// Memory-mapped CSR: the same on-disk format as the cold reader, but the
// whole file is mapped read-only once at open, so every probe is a couple
// of loads against the page cache instead of positioned-read syscalls.
// This is the hot local path the space-efficient LCA model wants: the
// polylog-probe guarantee means a query touches a handful of adjacency
// rows, and a mapping answers those touches from resident pages with zero
// per-probe allocation and zero syscalls.
//
// The reader keeps probe-locality counters (the LocalityReporter
// capability): a load landing on the same 4KiB page as the load before it
// is a local hit (near-free), a different page is a page touch (page
// cache or fault work). The split is what benchmarks and served answers
// surface to show whether a workload's probes actually exhibit the
// locality the cache hierarchy is sized for. A probe counts its loads in
// locals and publishes them once, with one exchange of the shared last
// page and at most two adds. An Adjacency probe on an unsorted file
// searches the row's bytes for the target several cells per step
// (scanCells) and records the cells a cell-by-cell scan would have read,
// so its counts do not depend on how the row is searched; a sequential
// caller still gets exactly the per-load counts. AdjacencyEach answers a
// list of Adjacency targets on one row (the oracle's AdjacencyScanner
// op): it reads the row's offsets once, looks for a long list's targets
// in one pass over the row (scanCellsEach), records the loads of the
// scalar probes in their order and publishes them with one touch, so a
// scan's answers and counts do not depend on which path asked.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"lca/internal/graph"
)

// ErrMmapUnsupported marks platforms (or file sizes) the mmap backend
// cannot serve; OpenCSRMmap wraps it so callers can fall back to the cold
// positioned-read reader with errors.Is.
var ErrMmapUnsupported = errors.New("mmap is not supported here")

// csrPageShift is the locality granule: byte offsets within the same
// 1<<csrPageShift block count as one page. 4KiB matches the smallest
// page size of every supported platform.
const csrPageShift = 12

// CSRMmap is a memory-mapped source over a CSR binary file. Construct
// with OpenCSRMmap; the zero value is unusable. Safe for concurrent use:
// the mapping is read-only and the counters are atomic.
type CSRMmap struct {
	f    *os.File
	data []byte
	h    graph.CSRHeader

	pageTouches atomic.Uint64
	localHits   atomic.Uint64
	lastPage    atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

var (
	_ Source           = (*CSRMmap)(nil)
	_ EdgeCounter      = (*CSRMmap)(nil)
	_ Closer           = (*CSRMmap)(nil)
	_ LocalityReporter = (*CSRMmap)(nil)
)

// OpenCSRMmap maps a CSR binary file for hot probing. The error wraps
// ErrMmapUnsupported when the platform cannot map files (or the file
// exceeds the address space); callers fall back to OpenCSR then.
func OpenCSRMmap(path string) (*CSRMmap, error) {
	if !mmapSupported {
		return nil, fmt.Errorf("source: csr mmap %s: %w", path, ErrMmapUnsupported)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	h, err := graph.ReadCSRHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if h.N > math.MaxInt32+1 {
		// Neighbor cells are int32; a bigger N could not have been written.
		f.Close()
		return nil, fmt.Errorf("source: CSR header n=%d exceeds the int32 vertex space", h.N)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if want := h.NeighborPos(h.Entries); st.Size() < want {
		f.Close()
		return nil, fmt.Errorf("source: CSR file truncated: %d bytes, header requires %d", st.Size(), want)
	}
	size := st.Size()
	if int64(int(size)) != size {
		// A 32-bit address space cannot hold the mapping.
		f.Close()
		return nil, fmt.Errorf("source: csr mmap %s: %d bytes exceed the address space: %w", path, size, ErrMmapUnsupported)
	}
	data, err := mmapFile(f.Fd(), int(size))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("source: csr mmap %s: %w", path, err)
	}
	c := &CSRMmap{f: f, data: data, h: h}
	c.lastPage.Store(-1)
	return c, nil
}

// Close unmaps the file exactly once and releases the handle. Idempotent:
// repeated calls return the first result, so session teardown and
// deferred cleanup can both fire without a double munmap.
func (c *CSRMmap) Close() error {
	c.closeOnce.Do(func() {
		err := munmapFile(c.data)
		c.data = nil
		if cerr := c.f.Close(); err == nil {
			err = cerr
		}
		c.closeErr = err
	})
	return c.closeErr
}

// N implements Source.
func (c *CSRMmap) N() int { return int(c.h.N) }

// M implements EdgeCounter; the edge count is in the header.
func (c *CSRMmap) M() int { return int(c.h.Entries / 2) }

// Sorted reports whether the file's adjacency lists are sorted (the
// writer's flag); sorted files answer Adjacency probes in O(log deg)
// loads instead of O(deg).
func (c *CSRMmap) Sorted() bool { return c.h.Sorted }

// PageTouches implements LocalityReporter: loads that landed on a
// different page than the load before them.
func (c *CSRMmap) PageTouches() uint64 { return c.pageTouches.Load() }

// LocalHits implements LocalityReporter: loads that stayed on the page
// of the load before them.
func (c *CSRMmap) LocalHits() uint64 { return c.localHits.Load() }

// probeLoc replays one probe's loads through LocalityReporter's
// per-load model in plain locals; touch then publishes the result once.
// Zero value: a probe that has loaded nothing.
type probeLoc struct {
	first, last int64  // pages of the probe's first and latest load
	moves       uint64 // loads that left the page of the load before them
	loads       uint64
}

// load records one load at byte offset pos.
func (p *probeLoc) load(pos int64) {
	page := pos >> csrPageShift
	if p.loads == 0 {
		p.first = page
	} else if page != p.last {
		p.moves++
	}
	p.last = page
	p.loads++
}

// span records k > 0 ascending loads of contiguous cells whose first
// and last byte offsets are lo and hi. Cells never straddle a page, so
// the run enters every page from lo's to hi's exactly once.
func (p *probeLoc) span(lo, hi int64, k uint64) {
	p.load(lo)
	p.moves += uint64(hi>>csrPageShift - lo>>csrPageShift)
	p.last = hi >> csrPageShift
	p.loads += k - 1
}

// touch publishes one probe's locality with one lastPage exchange and at
// most two adds. Under the per-load model the probe's first load is a
// touch unless the previous probe ended on its page, each later load is a
// touch exactly when it changes page, and every other load is a local
// hit; a sequential caller gets exactly those counts. Under concurrency
// the exchange orders whole probes rather than loads, so the same-page
// attribution is approximate, which is all a locality signal needs to be.
func (c *CSRMmap) touch(p *probeLoc) {
	if p.loads == 0 {
		return
	}
	touches := p.moves
	if c.lastPage.Swap(p.last) != p.first {
		touches++
	}
	if touches > 0 {
		c.pageTouches.Add(touches)
	}
	if hits := p.loads - touches; hits > 0 {
		c.localHits.Add(hits)
	}
}

// run returns the adjacency cell range [lo, hi) of v, or ok=false on a
// corrupt offset pair (probe answers degrade to "no neighbor" rather than
// panicking mid-query, matching the cold reader). The offset load is
// recorded in p unless v is out of range.
func (c *CSRMmap) run(p *probeLoc, v int) (lo, hi int64, ok bool) {
	if v < 0 || int64(v) >= c.h.N {
		return 0, 0, false
	}
	pos := c.h.OffsetPos(int64(v))
	p.load(pos)
	lo = int64(binary.LittleEndian.Uint64(c.data[pos:]))
	hi = int64(binary.LittleEndian.Uint64(c.data[pos+8:]))
	if lo < 0 || lo > hi || hi > c.h.Entries {
		return 0, 0, false
	}
	return lo, hi, true
}

// cell returns adjacency cell i, recording its load in p.
func (c *CSRMmap) cell(p *probeLoc, i int64) int {
	pos := c.h.NeighborPos(i)
	p.load(pos)
	return int(binary.LittleEndian.Uint32(c.data[pos:]))
}

// Degree implements Source.
func (c *CSRMmap) Degree(v int) int {
	var p probeLoc
	lo, hi, ok := c.run(&p, v)
	c.touch(&p)
	if !ok {
		return 0
	}
	return int(hi - lo)
}

// Neighbor implements Source.
func (c *CSRMmap) Neighbor(v, i int) int {
	var p probeLoc
	lo, hi, ok := c.run(&p, v)
	w := -1
	if ok && i >= 0 && int64(i) < hi-lo {
		w = c.cell(&p, lo+int64(i))
	}
	c.touch(&p)
	return w
}

// Adjacency implements Source: binary search on sorted files, linear scan
// otherwise.
func (c *CSRMmap) Adjacency(u, v int) int {
	var p probeLoc
	lo, hi, ok := c.run(&p, u)
	idx := -1
	switch {
	case !ok:
	case c.h.Sorted:
		idx = c.search(&p, lo, hi, v)
	default:
		idx = c.scan(&p, lo, hi, v)
	}
	c.touch(&p)
	return idx
}

// search binary-searches the sorted cells [lo, hi) for v: O(log deg)
// loads, each recorded in p.
func (c *CSRMmap) search(p *probeLoc, lo, hi int64, v int) int {
	origLo, origHi := lo, hi
	for lo < hi {
		mid := (lo + hi) / 2
		if w := c.cell(p, mid); w < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < origHi && c.cell(p, lo) == v {
		return int(lo - origLo)
	}
	return -1
}

// AdjacencyEach answers Adjacency(u, vs[k]) into idx[k] for k in order,
// stopping after the first edge when first is set, and returns how many
// targets it answered (the oracle package's AdjacencyScanner). It reads
// u's offsets once. On an unsorted file, a list of at least eachMin
// targets is searched for in one pass over u's row (scanCellsEach), and
// a shorter one target by target (scanCells). For each answered target,
// in order, it records the loads the scalar probe would make: the offset
// load, then the binary-search path or the cells a cell-by-cell scan
// reads. One touch publishes them all, so answers and a sequential
// caller's locality counts equal those of the scalar probes.
func (c *CSRMmap) AdjacencyEach(u int, vs, idx []int, first bool) int {
	idx = idx[:len(vs)]
	if len(vs) == 0 {
		return 0
	}
	if u < 0 || int64(u) >= c.h.N { // loads nothing, like Adjacency
		for k := range idx {
			idx[k] = -1
		}
		return len(vs)
	}
	var p probeLoc
	lo, hi, ok := c.run(&p, u)
	off, start := c.h.OffsetPos(int64(u)), c.h.NeighborPos(lo)
	onePass := ok && !c.h.Sorted && lo < hi && len(vs) >= eachMin
	if onePass {
		scanCellsEach(c.data[start:c.h.NeighborPos(hi)], vs, idx)
	}
	n := len(vs)
	for k, v := range vs {
		if k > 0 {
			p.load(off)
		}
		switch {
		case onePass:
			read := cellsRead(idx[k], int(hi-lo))
			p.span(start, start+4*int64(read-1), uint64(read))
		case !ok:
			idx[k] = -1
		case c.h.Sorted:
			idx[k] = c.search(&p, lo, hi, v)
		default:
			idx[k] = c.scan(&p, lo, hi, v)
		}
		if first && idx[k] >= 0 {
			n = k + 1
			break
		}
	}
	c.touch(&p)
	return n
}

// scan finds v in the unsorted cells [lo, hi) with scanCells over the
// mapped bytes: no shared writes, and the loads it records in p are the
// ascending run a cell-by-cell scan would make, up to the match or to the
// end of the row, recorded from its first and last offset.
func (c *CSRMmap) scan(p *probeLoc, lo, hi int64, v int) int {
	if lo == hi {
		return -1
	}
	start := c.h.NeighborPos(lo)
	idx, read := scanCells(c.data[start:c.h.NeighborPos(hi)], v)
	p.span(start, start+4*int64(read-1), uint64(read))
	return idx
}

// cellsRead is the number of cells a cell-by-cell scan of a row of
// cells cells reads to answer idx: through the match, or every cell on a
// miss.
func cellsRead(idx, cells int) int {
	if idx < 0 {
		return cells
	}
	return idx + 1
}

// scanCells returns the index of the first little-endian uint32 cell of
// row equal to v, or -1, and the number of cells a cell-by-cell scan
// reads to find it: through the match, or every cell on a miss. A
// trailing partial cell is not a cell. bytes.Index looks for v's four
// bytes many cells per step (a vectorized search for the first byte, then
// a compare); a match that starts off a cell boundary straddles two cells
// and is skipped by resuming at the next boundary.
func scanCells(row []byte, v int) (idx, read int) {
	cells := len(row) / 4
	want := uint32(v)
	if int(want) != v { // no cell decodes to any other v
		return -1, cells
	}
	row = row[:4*cells]
	var pat [4]byte
	binary.LittleEndian.PutUint32(pat[:], want)
	for off := 0; ; {
		i := bytes.Index(row[off:], pat[:])
		if i < 0 {
			return -1, cells
		}
		if off += i; off&3 == 0 {
			return off / 4, off/4 + 1
		}
		off = off&^3 + 4
	}
}

// eachMin is the shortest target list AdjacencyEach answers in one pass
// over the row. BenchmarkScanCellsEach puts the crossover there: on
// 200-cell rows a pass costs about as much as five scanCells searches
// (2-vCPU Xeon, Go 1.24).
const eachMin = 6

// eachChunk is the most targets one pass of scanCellsEach looks for; a
// longer list takes one pass per chunk. The table keeps at most half its
// slots full.
const eachChunk = 32

// cellSet is scanCellsEach's table of targets: a filter indexed by the
// top ten bits of a value's hash, which rejects most other cells with
// one load, and an open-addressed table of 2*eachChunk slots, each
// holding a target and where it was first seen.
type cellSet struct {
	filter [1024]bool
	key    [2 * eachChunk]uint32
	// at is 0 for an empty slot, -1 for a target not seen yet, and 1 +
	// the index of the first cell equal to key once seen.
	at [2 * eachChunk]int32
}

// cellHash is the multiplicative hash the filter and the table share.
func cellHash(w uint32) uint32 { return w * 0x9e3779b1 }

// slot returns the slot holding w, or the empty slot where w would go.
func (s *cellSet) slot(w uint32) uint32 {
	j := cellHash(w) >> 26
	for s.at[j] != 0 && s.key[j] != w {
		j = (j + 1) % (2 * eachChunk)
	}
	return j
}

// see records that cell i holds w, and returns 1 if that is the first
// sighting of a target, else 0.
func (s *cellSet) see(w uint32, i int) int {
	if j := s.slot(w); s.at[j] == -1 {
		s.at[j] = int32(i + 1)
		return 1
	}
	return 0
}

// scanCellsEach sets idx[k] to the index scanCells(row, vs[k]) returns,
// for every k, reading the row's cells once per chunk of eachChunk
// targets, two cells per step. Repeated targets share a slot, and a pass
// stops once every target of its chunk has been seen. The read count of
// each answer is cellsRead(idx[k], len(row)/4), as scanCells returns it.
func scanCellsEach(row []byte, vs, idx []int) {
	for len(vs) > eachChunk {
		scanCellsEach(row, vs[:eachChunk], idx[:eachChunk])
		vs, idx = vs[eachChunk:], idx[eachChunk:]
	}
	var s cellSet
	left := 0 // targets in the table not seen yet
	for _, v := range vs {
		w := uint32(v)
		if int(w) != v { // no cell decodes to any other v
			continue
		}
		if j := s.slot(w); s.at[j] == 0 {
			s.filter[cellHash(w)>>22] = true
			s.key[j], s.at[j] = w, -1
			left++
		}
	}
	i := 0
	for ; left > 0 && i+8 <= len(row); i += 8 {
		x := binary.LittleEndian.Uint64(row[i:])
		lo, hi := uint32(x), uint32(x>>32)
		if s.filter[cellHash(lo)>>22] || s.filter[cellHash(hi)>>22] {
			left -= s.see(lo, i/4) + s.see(hi, i/4+1)
		}
	}
	if left > 0 && i+4 <= len(row) {
		s.see(binary.LittleEndian.Uint32(row[i:]), i/4)
	}
	for k, v := range vs {
		idx[k] = -1
		if w := uint32(v); int(w) == v {
			if at := s.at[s.slot(w)]; at > 0 {
				idx[k] = int(at - 1)
			}
		}
	}
}
