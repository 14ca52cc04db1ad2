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
//     vertex, every missed row in one answer;
//   - else the scalar loop: one Degree plus one Neighbor per cell, which
//     locally (mmap CSR, implicit families) costs barely more than one
//     cell.
//
// Over a network source, an exploration therefore costs one round trip
// instead of deg+1, and Prefetch(vs...) fetches every uncached row it
// names in one call.

import (
	"errors"
	"fmt"
	"sync"

	"lca/internal/source"
	"lca/internal/trace"
)

// DefaultRowCap bounds the rows the L1 store holds; when a fetch would
// exceed it the whole store is dropped. Answers are unaffected (rows are
// pure functions of the graph); only subsequent hit rates pay, and a
// polylog working set fits many times over.
const DefaultRowCap = 1 << 16

// TieredOracle serves probes from the row tier over any source.
// Construct with NewTiered (or through NewChain); the zero value is
// unusable. Safe for concurrent use: one mutex guards the L1 store and
// the miss path, so concurrent misses serialize and every row is fetched
// once.
type TieredOracle struct {
	src source.Source
	rf  source.RowFetcher // non-nil: rowfull miss path
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
	// l1Hits and l2Hits count rows answered from each tier.
	l1Hits, l2Hits uint64
}

var (
	_ Oracle   = (*TieredOracle)(nil)
	_ Explorer = (*TieredOracle)(nil)
	_ Meter    = (*TieredOracle)(nil)
)

// NewTiered returns the row tier over src. l2 may be nil (L1 only) or
// shared among tiers over the same source. The RowFetcher capability is
// detected here and picks the miss path.
func NewTiered(src source.Source, l2 *RowCache) *TieredOracle {
	t := &TieredOracle{
		src: src,
		n:   src.N(),
		l2:  l2,
		l1:  newRowStore(DefaultRowCap),
	}
	t.rf, _ = source.RowFetcherOf(src)
	return t
}

// Unwrap returns the source the tier fetches from.
func (t *TieredOracle) Unwrap() Oracle { return t.src }

// Measure implements Meter: the rows answered from L1 and from L2.
func (t *TieredOracle) Measure(tel *Telemetry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tel.L1Hits += t.l1Hits
	tel.L2Hits += t.l2Hits
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
// the miss path and stores them in both tiers. Caller holds mu.
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
	if t.rf != nil {
		t.fetchFull(vs)
		return
	}
	for _, v := range vs {
		t.keep(v, t.scalarRow(v))
	}
}

// keep stores a freshly fetched row in both tiers. Caller holds mu.
func (t *TieredOracle) keep(v int, row []int) {
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
	for i, w := range cells {
		if w < 0 {
			cells = cells[:i]
			break
		}
	}
	row := t.l1.arena.alloc(len(cells))
	copy(row, cells)
	return row
}

// fetchFull reads rows through the backend's RowFetcher capability (the
// rowfull wire op): degree plus full row per vertex in one answer, one
// call per MaxProbeBatch rows. A failed fetch, or one answering a
// different number of rows than asked, panics with *source.ProbeError,
// matching the scalar network-probe contract that Session queries and
// the HTTP server recover into errors.
func (t *TieredOracle) fetchFull(vs []int) {
	for start := 0; start < len(vs); start += source.MaxProbeBatch {
		chunk := vs[start:min(start+source.MaxProbeBatch, len(vs))]
		got, err := t.rf.FetchRows(chunk)
		if err == nil && len(got) != len(chunk) {
			err = fmt.Errorf("source answered %d rows for %d vertices", len(got), len(chunk))
		}
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

// prefetchTarget labels an oracle:prefetch span with the single row it
// fetches, or -1 for a multi-row fetch.
func prefetchTarget(vs []int) int {
	if len(vs) == 1 {
		return vs[0]
	}
	return -1
}
