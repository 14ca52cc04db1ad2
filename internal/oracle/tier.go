package oracle

// The row tier: the one oracle layer that caches adjacency rows. The
// unit of work of every LCA here is a neighborhood row (the framing of
// Reingold-Vardi's "New Techniques and Tighter Bounds for LCAs"), so
// the tier keeps whole rows — a per-chain L1 store and an optional
// shared L2 RowCache (rowcache.go) — and fetches whole rows on a miss,
// whether the probe that missed was a scalar one or an exploration.
// Probe budgets and Counter sit above the tier and charge the cells the
// algorithm reads; the tier only changes where cells come from.
//
// The miss path is picked from the source's capabilities when the tier
// is built:
//
//   - the rowfull op (source.RowFetcher): degree plus full row per
//     vertex in one answer, no speculation;
//   - else batches (source.BatchProber): every missed row's degree plus
//     a speculative prefix of the learned width in one round trip, then
//     at most one more for the cells beyond it;
//   - else the scalar loop: one Degree plus one Neighbor per cell, which
//     locally (mmap CSR, implicit families) costs barely more than one
//     cell.
//
// Over a network source, an exploration therefore costs one or two
// round trips instead of deg+1, and Prefetch(vs...) fetches every
// uncached row it names in one call.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"lca/internal/source"
	"lca/internal/trace"
)

// DefaultFetchWidth is the speculative number of neighbor cells fetched
// alongside a row's degree probe when the backend's maximum degree is
// unknown. Rows at most this long cost one round trip; longer rows cost a
// second for the remainder. When the source has the DegreeBounder
// capability and its bound fits MaxFetchWidth, the bound replaces the
// default and every row costs exactly one round trip.
const DefaultFetchWidth = 64

// MaxFetchWidth caps the speculative width so a degree bound in the
// millions cannot turn one hint into a flood of wasted cells.
const MaxFetchWidth = 4096

// DefaultRowCap bounds the rows the L1 store holds; when a fetch would
// exceed it the whole store is dropped. Answers are unaffected (rows are
// pure functions of the graph); only subsequent hit rates pay, and a
// polylog working set fits many times over.
const DefaultRowCap = 1 << 16

// The learned-width estimator: unless the width is pinned (a degree
// bound at most MaxFetchWidth — then every row fits and there is nothing
// to learn), each fetched row's degree feeds an EWMA and a power-of-two
// histogram, in the order the caller listed the rows, and the
// speculative width becomes the high quantile's bucket bound — rounded
// up, so constant-degree families converge to exactly their degree and
// remainder trips vanish, while heavy-tailed rows stop over-fetching the
// sparse majority. Width only changes batching, never an answer.
const (
	// degHistBuckets spans degrees 1 .. 2^13; bucket i covers
	// (2^(i-1), 2^i]. MaxFetchWidth clamps whatever the walk reports.
	degHistBuckets = 14
	// widthWindow triggers halving, so the histogram tracks the current
	// workload's degree mix, not the lifetime union.
	widthWindow = 1024
	// widthMinSamples gates re-choosing: below it the starting width holds.
	widthMinSamples = 16
	// widthQuantile is the tail the speculative width must cover.
	widthQuantile = 0.95
	// degEWMAAlpha smooths the mean-degree estimate the quantile is
	// sanity-checked against.
	degEWMAAlpha = 0.1
)

// TieredOracle serves probes from the row tier over any source.
// Construct with NewTiered (or through NewChain); the zero value is
// unusable. Safe for concurrent use: one mutex guards the L1 store and
// the miss path, so concurrent misses serialize and every row is fetched
// once.
type TieredOracle struct {
	src source.Source
	bp  source.BatchProber // non-nil: batched miss path
	rf  source.RowFetcher  // non-nil: rowfull miss path
	n   int
	l2  *RowCache // nil: L1 only
	// tr, when non-nil, records oracle:prefetch spans around row fetches
	// (so the backend's rpc spans nest under the miss that caused them)
	// and cache-hit events on Neighbors reads served by a tier.
	tr *trace.Tracer

	mu sync.Mutex
	l1 rowStore
	// one is the scratch list of a single-row miss, so scalar misses
	// allocate nothing beyond the row's arena cells.
	one [1]int
	// l1Hits and l2Hits count rows answered from each tier, remTrips the
	// remainder batches the batched miss path issued.
	l1Hits, l2Hits, remTrips uint64

	// The learned-width state of the batched miss path.
	width    int  // speculative cells fetched with each degree probe
	adapt    bool // learn width from observed degrees (off when pinned)
	degEWMA  float64
	degHist  [degHistBuckets]uint64
	degTotal uint64
}

var (
	_ Oracle   = (*TieredOracle)(nil)
	_ Explorer = (*TieredOracle)(nil)
	_ Meter    = (*TieredOracle)(nil)
)

// NewTiered returns the row tier over src. l2 may be nil (L1 only) or
// shared among tiers over the same source. The RowFetcher, BatchProber
// and DegreeBounder capabilities are detected here: the first two pick
// the miss path, the third lets a known small maximum degree pin the
// speculative width so every batched row costs a single round trip.
func NewTiered(src source.Source, l2 *RowCache) *TieredOracle {
	t := &TieredOracle{
		src:   src,
		n:     src.N(),
		l2:    l2,
		l1:    newRowStore(DefaultRowCap),
		width: DefaultFetchWidth,
		adapt: true,
	}
	t.bp, _ = src.(source.BatchProber)
	t.rf, _ = source.RowFetcherOf(src)
	if db, ok := source.DegreeBounderOf(src); ok {
		if d := db.MaxDegree(); d >= 0 {
			// A source reporting a huge degree bound must not turn every
			// batch into an unbounded speculative prefix.
			t.width = min(d, MaxFetchWidth)
			// An exact bound means every row already fits one trip; there
			// is nothing left to learn. A clamped bound keeps the
			// estimator on — observed degrees may run far below it.
			t.adapt = d > MaxFetchWidth
		}
	}
	return t
}

// Unwrap returns the source the tier fetches from.
func (t *TieredOracle) Unwrap() Oracle { return t.src }

// Measure implements Meter: the rows answered from L1 and from L2, the
// remainder trips issued so far, and the current speculative width.
func (t *TieredOracle) Measure(tel *Telemetry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tel.L1Hits += t.l1Hits
	tel.L2Hits += t.l2Hits
	tel.RemainderTrips += t.remTrips
	tel.FetchWidth = uint64(t.width)
}

// N implements Oracle (free, as everywhere in the model).
func (t *TieredOracle) N() int { return t.n }

// Degree implements Oracle.
func (t *TieredOracle) Degree(v int) int {
	if v < 0 || v >= t.n {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.row(v))
}

// Neighbor implements Oracle.
func (t *TieredOracle) Neighbor(v, i int) int {
	if v < 0 || v >= t.n {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.row(v)
	if i < 0 || i >= len(row) {
		return -1
	}
	return row[i]
}

// Adjacency implements Oracle by scanning the cached row — polylog rows
// make the scan as cheap as a hash lookup, with no per-row index map to
// allocate.
func (t *TieredOracle) Adjacency(u, v int) int {
	if u < 0 || u >= t.n || v < 0 || v >= t.n {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, w := range t.row(u) {
		if w == v {
			return i
		}
	}
	return -1
}

// Neighbors implements Explorer. The returned slice is the cached row;
// callers must not modify it.
func (t *TieredOracle) Neighbors(v int) []int {
	if v < 0 || v >= t.n {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if row, ok := t.cached(v); ok {
		if tr := t.tr; tr != nil {
			tr.Event("oracle:neighbors", v, "cache-hit")
		}
		return row
	}
	return t.load(v)
}

// Prefetch implements Explorer: the uncached in-range rows among vs are
// fetched in one call through the miss path.
func (t *TieredOracle) Prefetch(vs ...int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var want []int
	var seen map[int]bool
	for _, v := range vs {
		if v < 0 || v >= t.n || seen[v] {
			continue
		}
		if _, ok := t.cached(v); ok {
			continue
		}
		if seen == nil {
			seen = make(map[int]bool, len(vs))
		}
		seen[v] = true
		want = append(want, v)
	}
	if len(want) > 0 {
		t.fetch(want)
	}
}

// peek returns v's row when L1 holds it, counting no hit: Explore's read
// of a row it has just fetched, which no probe has served yet.
func (t *TieredOracle) peek(v int) ([]int, bool) {
	if v < 0 || v >= t.n {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.l1.get(v)
}

// row returns v's full adjacency row from a tier or, on a miss, the
// source. Caller holds mu.
func (t *TieredOracle) row(v int) []int {
	if row, ok := t.cached(v); ok {
		return row
	}
	return t.load(v)
}

// cached returns v's row from L1, else from L2 (copying it into the L1
// arena). Caller holds mu.
func (t *TieredOracle) cached(v int) ([]int, bool) {
	if row, ok := t.l1.get(v); ok {
		t.l1Hits++
		return row, true
	}
	if t.l2 == nil {
		return nil, false
	}
	row, ok := t.l2.Get(v, t.l1.arena.alloc)
	if ok {
		t.l2Hits++
		t.l1.put(v, row)
	}
	return row, ok
}

// load fetches v's row through the miss path and returns it. Caller
// holds mu.
func (t *TieredOracle) load(v int) []int {
	t.one[0] = v
	t.fetch(t.one[:])
	row, _ := t.l1.get(v) // the last row stored: a reset cannot have dropped it
	return row
}

// fetch reads the full rows of vs (in range, uncached, distinct) through
// the miss path and stores them in both tiers, feeding their degrees to
// the width estimator in vs order. Caller holds mu.
func (t *TieredOracle) fetch(vs []int) {
	if tr := t.tr; tr != nil {
		// Push so the rpc spans recorded by the backend nest under the
		// miss that caused them.
		h := tr.Start("oracle:prefetch", prefetchTarget(vs))
		tr.Push(h)
		defer func() {
			tr.Pop()
			tr.End(h, fmt.Sprintf("rows=%d", len(vs)))
		}()
	}
	switch {
	case t.rf != nil:
		t.fetchFull(vs)
	case t.bp != nil:
		t.fetchBatched(vs)
	default:
		for _, v := range vs {
			t.keep(v, t.scalarRow(v))
		}
	}
	if t.adapt {
		t.width = t.chooseWidth()
	}
}

// keep stores a freshly fetched row in both tiers and feeds its degree
// to the width estimator. Caller holds mu.
func (t *TieredOracle) keep(v int, row []int) {
	if t.adapt {
		t.observeDegree(len(row))
	}
	t.l1.put(v, row)
	if t.l2 != nil {
		t.l2.Put(v, row)
	}
}

// scalarRow reads one full row cell by cell into the L1 arena.
func (t *TieredOracle) scalarRow(v int) []int {
	d := t.src.Degree(v)
	row := t.l1.arena.alloc(max(d, 0))
	for i := range row {
		w := t.src.Neighbor(v, i)
		if w < 0 {
			// A conformant source has no gap below its degree; degrade the
			// row rather than caching -1 cells.
			return row[:i]
		}
		row[i] = w
	}
	return row
}

// arenaRow copies fetched cells into the L1 arena, stopping at the first
// out-of-range cell (a conformant source has none below the degree; the
// trim keeps a misreporting backend from poisoning the cache with -1
// neighbors).
func (t *TieredOracle) arenaRow(cells []int) []int {
	cells = validPrefix(cells)
	row := t.l1.arena.alloc(len(cells))
	copy(row, cells)
	return row
}

// validPrefix returns cells up to the first out-of-range answer, capped
// so an append reallocates instead of clobbering the cells beyond.
func validPrefix(cells []int) []int {
	for i, w := range cells {
		if w < 0 {
			return cells[:i:i]
		}
	}
	return cells[:len(cells):len(cells)]
}

// fetchFull reads rows through the backend's RowFetcher capability (the
// rowfull wire op): degree plus full row per vertex in one answer, so no
// width guess and no remainder trip exist on this path at all.
func (t *TieredOracle) fetchFull(vs []int) {
	for start := 0; start < len(vs); start += source.MaxProbeBatch {
		chunk := vs[start:min(start+source.MaxProbeBatch, len(vs))]
		got, err := t.rf.FetchRows(chunk)
		if err != nil {
			var pe *source.ProbeError
			if errors.As(err, &pe) {
				panic(pe)
			}
			panic(&source.ProbeError{Op: source.OpRowFull, A: len(chunk), Err: err})
		}
		for i, v := range chunk {
			t.keep(v, t.arenaRow(got[i]))
		}
	}
}

// fetchBatched reads rows via batched round trips: every row's degree
// plus its speculative prefix in one batch, then one more for the cells
// of every row that outgrew the width.
func (t *TieredOracle) fetchBatched(vs []int) {
	width := t.width
	stride := width + 1
	probes := make([]source.ProbeReq, 0, len(vs)*stride)
	for _, v := range vs {
		probes = append(probes, source.ProbeReq{Op: source.OpDegree, A: v})
		for i := 0; i < width; i++ {
			probes = append(probes, source.ProbeReq{Op: source.OpNeighbor, A: v, B: i})
		}
	}
	answers, _ := t.batch(probes)
	rows := make([][]int, len(vs))
	outgrew := func(j int) bool { return len(rows[j]) == width && answers[j*stride] > width }
	var rest []source.ProbeReq
	for j, v := range vs {
		base := j * stride
		rows[j] = validPrefix(answers[base+1 : base+1+min(max(answers[base], 0), width)])
		if outgrew(j) {
			for i := width; i < answers[base]; i++ {
				rest = append(rest, source.ProbeReq{Op: source.OpNeighbor, A: v, B: i})
			}
		}
	}
	if len(rest) > 0 {
		tails, trips := t.batch(rest)
		t.remTrips += trips
		for j := range vs {
			if outgrew(j) {
				k := answers[j*stride] - width
				rows[j] = append(rows[j], validPrefix(tails[:k])...)
				tails = tails[k:]
			}
		}
	}
	for j, v := range vs {
		t.keep(v, t.arenaRow(rows[j]))
	}
}

// batch issues one logical batch, chunked to the wire protocol's
// MaxProbeBatch, and returns the answers and the round trips it took. A
// failed batch panics with *source.ProbeError, matching the scalar
// network-probe contract that Session queries and the HTTP server
// recover into errors.
func (t *TieredOracle) batch(probes []source.ProbeReq) (out []int, trips uint64) {
	out = make([]int, 0, len(probes))
	for len(probes) > 0 {
		chunk := probes[:min(len(probes), source.MaxProbeBatch)]
		answers, err := t.bp.ProbeBatch(chunk)
		if err != nil {
			var pe *source.ProbeError
			if errors.As(err, &pe) {
				panic(pe)
			}
			panic(&source.ProbeError{Op: "batch", A: len(chunk), Err: err})
		}
		trips++
		out = append(out, answers...)
		probes = probes[len(chunk):]
	}
	return out, trips
}

// observeDegree feeds one fetched row's degree into the width estimator.
// Caller holds mu.
func (t *TieredOracle) observeDegree(d int) {
	if t.degTotal == 0 {
		t.degEWMA = float64(d)
	} else {
		t.degEWMA += degEWMAAlpha * (float64(d) - t.degEWMA)
	}
	t.degHist[degBucket(d)]++
	t.degTotal++
	if t.degTotal >= widthWindow {
		var kept uint64
		for i := range t.degHist {
			t.degHist[i] /= 2
			kept += t.degHist[i]
		}
		t.degTotal = kept
	}
}

// degBucket maps a degree to its histogram bucket; bucket i covers
// (2^(i-1), 2^i].
func degBucket(d int) int {
	if d < 1 {
		return 0
	}
	return min(bits.Len64(uint64(d)-1), degHistBuckets-1)
}

// chooseWidth picks the speculative width: the widthQuantile bucket's
// upper bound (rounded up to a power of two, so constant-degree rows
// converge exactly), floored by the EWMA's power-of-two ceiling and
// clamped into [1, MaxFetchWidth]. Below widthMinSamples the current
// width holds. Caller holds mu.
func (t *TieredOracle) chooseWidth() int {
	if t.degTotal < widthMinSamples {
		return t.width
	}
	rank := max(uint64(widthQuantile*float64(t.degTotal)), 1)
	w := 1 << (degHistBuckets - 1)
	var cum uint64
	for i, c := range t.degHist {
		cum += c
		if cum >= rank {
			w = 1 << i
			break
		}
	}
	w = max(w, pow2Ceil(int(math.Ceil(t.degEWMA))))
	return min(max(w, 1), MaxFetchWidth)
}

// pow2Ceil is the smallest power of two at least x (1 for x <= 1).
func pow2Ceil(x int) int {
	if x <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(x-1))
}

// prefetchTarget labels an oracle:prefetch span with the single row it
// fetches, or -1 for a multi-row fetch.
func prefetchTarget(vs []int) int {
	if len(vs) == 1 {
		return vs[0]
	}
	return -1
}
