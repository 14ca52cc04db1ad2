package oracle

// PrefetchOracle: the backend side of the exploration API. An LCA query
// explores a small neighborhood, yet over a network-backed source every
// scalar probe is a round trip; this wrapper translates Neighbors and
// Prefetch into single source.BatchProber round trips and answers the
// subsequent scalar probes from the primed rows, so a neighborhood costs
// one or two round trips instead of deg+1. On backends without the batch
// capability it degrades to the equivalent scalar loops — same answers,
// no transport advantage — so Session.WithPrefetch is safe to enable
// unconditionally.

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

// DefaultRowCap bounds the number of cached rows; see WithRowCap.
const DefaultRowCap = 1 << 16

// The learned-width estimator: unless the width is pinned (WithFetchWidth,
// or a degree bound at most MaxFetchWidth — then every row fits and there
// is nothing to learn), each fetched row's degree feeds an EWMA and a
// power-of-two histogram, and the speculative width becomes the high
// quantile's bucket bound — rounded up, so constant-degree families
// converge to exactly their degree and remainder trips vanish, while
// heavy-tailed rows stop over-fetching the sparse majority. Width only
// changes batching, never an answer.
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

// PrefetchOracle caches full adjacency rows fetched in batched round
// trips. Construct with NewPrefetch; the zero value is unusable. Safe for
// concurrent use (a mutex guards the row cache; batch fetches serialize).
// Cached rows are pure functions of the fixed graph, so the cache never
// changes an answer.
type PrefetchOracle struct {
	src source.Source
	bp  source.BatchProber // nil: backend answers per cell, fall back to loops
	rf  source.RowFetcher  // non-nil: rowfull wire op, no speculation needed
	n   int
	cap int // cached-row bound; the cache is cleared when exceeded

	// tr, when non-nil, records oracle:prefetch spans around batched row
	// fetches and cache-hit events on primed Neighbors reads (tracing.go).
	tr *trace.Tracer

	mu sync.Mutex
	// store holds the primed full adjacency rows in an open-addressed
	// table (no per-row map allocations; the table resets in bulk at the
	// cap). Adjacency scans the polylog row — as cheap as the per-row
	// index maps this replaced, with zero allocation.
	store rowStore
	stats PrefetchStats

	// The learned-width state (guarded by mu; fetchBatched reads a width
	// snapshot taken under the lock).
	width    int  // speculative cells fetched with each degree probe
	adapt    bool // learn width from observed degrees (off when pinned)
	degEWMA  float64
	degHist  [degHistBuckets]uint64
	degTotal uint64
}

var (
	_ Oracle   = (*PrefetchOracle)(nil)
	_ Explorer = (*PrefetchOracle)(nil)
	_ Meter    = (*PrefetchOracle)(nil)
)

// PrefetchStats is the transport-side accounting of a PrefetchOracle.
type PrefetchStats struct {
	// Batches counts BatchProber round trips issued.
	Batches uint64
	// BatchedCells counts cells fetched through those batches (including
	// speculative cells beyond a row's degree).
	BatchedCells uint64
	// RowHits counts scalar probes answered from primed rows.
	RowHits uint64
	// Misses counts scalar probes that fell through to the backend.
	Misses uint64
	// RemainderTrips counts the extra round trips spent fetching the row
	// cells beyond the speculative width — the trips the learned width
	// (and the rowfull wire op) exist to erase.
	RemainderTrips uint64
}

// PrefetchOption configures a PrefetchOracle at construction.
type PrefetchOption func(*PrefetchOracle)

// WithFetchWidth pins the speculative fetch width (see DefaultFetchWidth),
// disabling the learned-width estimator. Values above MaxFetchWidth are
// clamped.
func WithFetchWidth(w int) PrefetchOption {
	return func(p *PrefetchOracle) {
		if w > 0 {
			p.width = min(w, MaxFetchWidth)
			p.adapt = false
		}
	}
}

// WithRowCap bounds the number of cached rows (default DefaultRowCap).
// When a fetch would exceed the cap the whole cache is dropped — answers
// are unaffected (rows are pure functions of the graph); only subsequent
// hit rates pay.
func WithRowCap(rows int) PrefetchOption {
	return func(p *PrefetchOracle) {
		if rows > 0 {
			p.cap = rows
		}
	}
}

// NewPrefetch returns a prefetching exploration oracle over src. The
// BatchProber and DegreeBounder capabilities are detected here: the first
// enables batched round trips, the second lets a known small maximum
// degree make every row fetch a single round trip.
func NewPrefetch(src source.Source, opts ...PrefetchOption) *PrefetchOracle {
	p := &PrefetchOracle{
		src:   src,
		n:     src.N(),
		width: DefaultFetchWidth,
		cap:   DefaultRowCap,
	}
	p.adapt = true
	if bp, ok := src.(source.BatchProber); ok {
		p.bp = bp
	}
	if rf, ok := source.RowFetcherOf(src); ok {
		p.rf = rf
	}
	if db, ok := source.DegreeBounderOf(src); ok {
		if d := db.MaxDegree(); d >= 0 {
			// The same clamp WithFetchWidth applies: a source reporting a
			// huge degree bound must not turn every exploration batch into
			// an unbounded speculative prefix.
			p.width = min(d, MaxFetchWidth)
			if d <= MaxFetchWidth {
				// An exact bound means every row already fits one trip;
				// there is nothing left to learn. A clamped bound keeps the
				// estimator on — observed degrees may run far below it.
				p.adapt = false
			}
		}
	}
	for _, o := range opts {
		o(p)
	}
	p.store = newRowStore(p.cap)
	return p
}

// PrefetchStats returns the transport accounting so far.
func (p *PrefetchOracle) PrefetchStats() PrefetchStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Unwrap returns the source the tier fetches from.
func (p *PrefetchOracle) Unwrap() Oracle { return p.src }

// Measure implements Meter: the remainder trips issued so far and the
// current speculative width — fixed when pinned, the estimator's latest
// choice otherwise.
func (p *PrefetchOracle) Measure(t *Telemetry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t.RemainderTrips += p.stats.RemainderTrips
	t.FetchWidth = uint64(p.width)
}

// N implements Oracle (free, as everywhere in the model).
func (p *PrefetchOracle) N() int { return p.n }

// Degree implements Oracle, served from the primed row when present.
func (p *PrefetchOracle) Degree(v int) int {
	p.mu.Lock()
	if row, ok := p.store.get(v); ok {
		p.stats.RowHits++
		p.mu.Unlock()
		return len(row)
	}
	p.stats.Misses++
	p.mu.Unlock()
	return p.src.Degree(v)
}

// Neighbor implements Oracle, served from the primed row when present.
func (p *PrefetchOracle) Neighbor(v, i int) int {
	p.mu.Lock()
	if row, ok := p.store.get(v); ok {
		p.stats.RowHits++
		p.mu.Unlock()
		if i < 0 || i >= len(row) {
			return -1
		}
		return row[i]
	}
	p.stats.Misses++
	p.mu.Unlock()
	return p.src.Neighbor(v, i)
}

// Adjacency implements Oracle. A primed row answers locally by scanning
// its cells — rows are polylog, so the scan matches the per-row index
// maps it replaced without their allocation churn, and repeated
// membership tests (the spanners' bread and butter) stay cheap.
func (p *PrefetchOracle) Adjacency(u, v int) int {
	if u < 0 || u >= p.n || v < 0 || v >= p.n {
		return -1
	}
	p.mu.Lock()
	if row, ok := p.store.get(u); ok {
		p.stats.RowHits++
		p.mu.Unlock()
		for i, w := range row {
			if w == v {
				return i
			}
		}
		return -1
	}
	p.stats.Misses++
	p.mu.Unlock()
	return p.src.Adjacency(u, v)
}

// Neighbors implements Explorer: one (or, past the speculative width, two)
// batched round trips for an uncached row. The returned slice is the
// cached row; callers must not modify it.
func (p *PrefetchOracle) Neighbors(v int) []int {
	if v < 0 || v >= p.n {
		return nil
	}
	p.mu.Lock()
	if row, ok := p.store.get(v); ok {
		p.stats.RowHits++
		p.mu.Unlock()
		if tr := p.tr; tr != nil {
			tr.Event("oracle:neighbors", v, "cache-hit")
		}
		return row
	}
	p.mu.Unlock()
	// Use the fetched copy directly: a concurrent fetch tripping the row
	// cap could clear the cache between our store and a re-read.
	return p.fetchRows([]int{v})[v]
}

// Prefetch implements Explorer: the uncached in-range rows among vs are
// fetched together — one batch covering every row's degree and
// speculative prefix, plus at most one more for the remainders.
func (p *PrefetchOracle) Prefetch(vs ...int) {
	p.mu.Lock()
	var want []int
	seen := make(map[int]bool, len(vs))
	for _, v := range vs {
		if v < 0 || v >= p.n || seen[v] {
			continue
		}
		seen[v] = true
		if _, ok := p.store.get(v); !ok {
			want = append(want, v)
		}
	}
	p.mu.Unlock()
	if len(want) > 0 {
		p.fetchRows(want)
	}
}

// fetchRows fetches the full adjacency rows of vs (in-range,
// deduplicated), stores them, and returns them. The network work runs
// without the lock — concurrent probers keep hitting already-primed rows
// meanwhile — so two goroutines racing on the same row may both fetch
// it; determinism makes the copies identical and the race costs only a
// duplicate trip, the same benign-race stance as CachingOracle.
func (p *PrefetchOracle) fetchRows(vs []int) map[int][]int {
	if tr := p.tr; tr != nil {
		// Push so the rpc spans recorded by the backend nest under the
		// exploration that caused them; fetchRows runs on the caller's
		// goroutine, so the implicit parent stack pairs correctly.
		h := tr.Start("oracle:prefetch", prefetchTarget(vs))
		tr.Push(h)
		defer func() {
			tr.Pop()
			tr.End(h, fmt.Sprintf("rows=%d", len(vs)))
		}()
	}
	rows := make(map[int][]int, len(vs))
	var batches, cells, remTrips uint64
	switch {
	case p.rf != nil:
		p.fetchFull(vs, rows, &batches, &cells)
	case p.bp == nil:
		for _, v := range vs {
			rows[v] = scalarRow(p.src, v)
		}
	default:
		p.mu.Lock()
		width := p.width
		p.mu.Unlock()
		p.fetchBatched(vs, width, rows, &batches, &cells, &remTrips)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Batches += batches
	p.stats.BatchedCells += cells
	p.stats.RemainderTrips += remTrips
	p.observeDegreesLocked(rows)
	// The store resets itself in bulk at its cap; rows are pure functions
	// of the graph, so only hit rate is at stake.
	for v, row := range rows {
		p.store.put(v, row)
	}
	return rows
}

// fetchFull fills rows through the backend's RowFetcher capability (the
// rowfull wire op): degree plus full row per vertex in one answer, so no
// width guess and no remainder trip exist on this path at all. Runs
// without the lock.
func (p *PrefetchOracle) fetchFull(vs []int, rows map[int][]int, batches, cells *uint64) {
	for start := 0; start < len(vs); start += source.MaxProbeBatch {
		chunk := vs[start:min(start+source.MaxProbeBatch, len(vs))]
		got, err := p.rf.FetchRows(chunk)
		if err != nil {
			var pe *source.ProbeError
			if errors.As(err, &pe) {
				panic(pe)
			}
			panic(&source.ProbeError{Op: source.OpRowFull, A: len(chunk), Err: err})
		}
		*batches++
		for i, v := range chunk {
			row := trimRow(got[i], len(got[i]))
			rows[v] = row
			*cells += uint64(len(row)) + 1 // the row plus its degree answer
		}
	}
}

// observeDegreesLocked feeds freshly fetched row degrees into the width
// estimator and re-chooses the speculative width. Caller holds mu.
func (p *PrefetchOracle) observeDegreesLocked(rows map[int][]int) {
	if !p.adapt {
		return
	}
	for _, row := range rows {
		d := len(row)
		if p.degTotal == 0 {
			p.degEWMA = float64(d)
		} else {
			p.degEWMA += degEWMAAlpha * (float64(d) - p.degEWMA)
		}
		p.degHist[degBucket(d)]++
		p.degTotal++
		if p.degTotal >= widthWindow {
			var kept uint64
			for i := range p.degHist {
				p.degHist[i] /= 2
				kept += p.degHist[i]
			}
			p.degTotal = kept
		}
	}
	p.width = p.chooseWidthLocked()
}

// degBucket maps a degree to its histogram bucket; bucket i covers
// (2^(i-1), 2^i].
func degBucket(d int) int {
	if d < 1 {
		return 0
	}
	i := bits.Len64(uint64(d) - 1)
	if i >= degHistBuckets {
		i = degHistBuckets - 1
	}
	return i
}

// chooseWidthLocked picks the speculative width: the widthQuantile
// bucket's upper bound (rounded up to a power of two, so constant-degree
// rows converge exactly), floored by the EWMA's power-of-two ceiling and
// clamped into [1, MaxFetchWidth]. Below widthMinSamples the current
// width holds. Caller holds mu.
func (p *PrefetchOracle) chooseWidthLocked() int {
	if p.degTotal < widthMinSamples {
		return p.width
	}
	rank := uint64(widthQuantile * float64(p.degTotal))
	if rank == 0 {
		rank = 1
	}
	w := 1 << (degHistBuckets - 1)
	var cum uint64
	for i, c := range p.degHist {
		cum += c
		if cum >= rank {
			w = 1 << i
			break
		}
	}
	if e := pow2Ceil(int(math.Ceil(p.degEWMA))); e > w {
		w = e
	}
	return min(max(w, 1), MaxFetchWidth)
}

// pow2Ceil is the smallest power of two at least x (1 for x <= 1).
func pow2Ceil(x int) int {
	if x <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(x-1))
}

// fetchBatched fills rows via batched round trips: every row's degree
// plus its speculative prefix in one batch, then at most one more for the
// cells beyond the width. Runs without the lock; width is the caller's
// snapshot of the (possibly learned) speculative width.
func (p *PrefetchOracle) fetchBatched(vs []int, width int, rows map[int][]int, batches, cells, rem *uint64) {
	stride := width + 1
	probes := make([]source.ProbeReq, 0, len(vs)*stride)
	for _, v := range vs {
		probes = append(probes, source.ProbeReq{Op: source.OpDegree, A: v})
		for i := 0; i < width; i++ {
			probes = append(probes, source.ProbeReq{Op: source.OpNeighbor, A: v, B: i})
		}
	}
	answers := p.batch(probes, batches, cells)
	type remainder struct{ v, deg int }
	var rest []remainder
	for j, v := range vs {
		base := j * stride
		deg := answers[base]
		take := min(deg, width)
		row := trimRow(answers[base+1:base+1+take], deg)
		rows[v] = row
		if len(row) == take && deg > width {
			rest = append(rest, remainder{v: v, deg: deg})
		}
	}
	if len(rest) == 0 {
		return
	}
	probes = probes[:0]
	for _, r := range rest {
		for i := width; i < r.deg; i++ {
			probes = append(probes, source.ProbeReq{Op: source.OpNeighbor, A: r.v, B: i})
		}
	}
	before := *batches
	answers = p.batch(probes, batches, cells)
	*rem += *batches - before
	k := 0
	for _, r := range rest {
		tail := trimRow(answers[k:k+r.deg-width], r.deg)
		k += r.deg - width
		rows[r.v] = append(rows[r.v], tail...)
	}
}

// batch issues one logical batch, chunked to the wire protocol's
// MaxProbeBatch, accumulating transport counts into the caller's locals
// (folded into stats under the lock afterwards). A failed batch panics
// with *source.ProbeError, matching the scalar network-probe contract
// that Session queries and the HTTP server recover into errors.
func (p *PrefetchOracle) batch(probes []source.ProbeReq, batches, cells *uint64) []int {
	out := make([]int, 0, len(probes))
	for len(probes) > 0 {
		chunk := probes
		if len(chunk) > source.MaxProbeBatch {
			chunk = probes[:source.MaxProbeBatch]
		}
		answers, err := p.bp.ProbeBatch(chunk)
		if err != nil {
			var pe *source.ProbeError
			if errors.As(err, &pe) {
				panic(pe)
			}
			panic(&source.ProbeError{Op: "batch", A: len(chunk), Err: err})
		}
		*batches++
		*cells += uint64(len(answers))
		out = append(out, answers...)
		probes = probes[len(chunk):]
	}
	return out
}

// trimRow copies a fetched prefix, stopping at the first out-of-range cell
// (a conformant source has none below the degree; the trim keeps a
// misreporting backend from poisoning the cache with -1 neighbors).
func trimRow(cells []int, deg int) []int {
	row := make([]int, 0, deg)
	for _, w := range cells {
		if w < 0 {
			break
		}
		row = append(row, w)
	}
	return row
}

// scalarRow reads one full row cell by cell — the fallback for backends
// without the batch capability.
func scalarRow(src source.Source, v int) []int {
	deg := src.Degree(v)
	row := make([]int, 0, deg)
	for i := 0; i < deg; i++ {
		w := src.Neighbor(v, i)
		if w < 0 {
			break
		}
		row = append(row, w)
	}
	return row
}
