// Package oracle defines the adjacency-list oracle through which every LCA
// views its input graph, together with the probe-accounting wrappers that
// the experiments use to measure probe complexity.
//
// The probe set follows the centralized-local model (Rubinfeld et al. 2011):
//
//   - Neighbor(v, i): the i-th neighbor of v, or -1 if i >= deg(v).
//   - Degree(v): deg(v). (Definable from Neighbor probes by binary search;
//     provided natively and counted separately, as in the papers.)
//   - Adjacency(u, v): the index of v in Gamma(u), or -1 if (u,v) is not an
//     edge. Note the answer carries positional information; the spanner
//     constructions' O(1) cluster-membership tests depend on it.
//
// Algorithms must interact with the input graph only through this
// interface; the harness enforces probe budgets and records statistics by
// wrapping it.
//
// # Neighborhood exploration
//
// The unit of work in every LCA here is not one cell but one neighborhood:
// a query explores a bounded recursion tree of adjacency rows (the framing
// of Reingold-Vardi's "New Techniques and Tighter Bounds for LCAs"). The
// exploration API makes that unit explicit:
//
//   - Neighbors(o, v) returns v's full adjacency row.
//   - Prefetch(o, vs...) hints that the caller is about to read cells of
//     the listed rows.
//
// Both are free-function helpers that work over any Oracle: when the
// oracle implements the optional Explorer capability they delegate to it,
// otherwise they fall back to the equivalent scalar probe loop, so
// algorithms written against the exploration API run unchanged on every
// backend. The payoff is the PrefetchOracle (prefetch.go): over a
// network-backed source with the source.BatchProber capability it turns
// one exploration into one batched round trip and serves the subsequent
// scalar probes from the primed rows — collapsing deg+1 round trips per
// neighborhood into one or two, while per-cell probe accounting (Counter,
// LimitOracle) is unchanged: budgets and probe counts charge the cells the
// algorithm reads, and round trips are measured separately (Stats.Batches,
// Stats.RoundTrips).
package oracle

import (
	"sync"

	"lca/internal/source"
	"lca/internal/trace"
)

// Oracle is the adjacency-list probe interface of the LCA model.
type Oracle interface {
	// N returns the number of vertices. Knowing n is standard in the model
	// (it parameterizes thresholds) and does not count as a probe.
	N() int
	// Degree returns deg(v).
	Degree(v int) int
	// Neighbor returns the i-th (0-indexed) neighbor of v, or -1 if i is
	// out of range.
	Neighbor(v, i int) int
	// Adjacency returns the index of v in the neighbor list of u, or -1 if
	// (u,v) is not an edge.
	Adjacency(u, v int) int
}

// New returns an oracle view of a probe source. The probe interface is the
// source interface — an in-memory *graph.Graph, an implicit generator and
// a disk-backed CSR file all answer the same four probes — so the oracle
// boundary is a semantic one: algorithms receive an Oracle, never a
// backend, and harnesses interpose the accounting wrappers below.
func New(src source.Source) Oracle { return src }

// Explorer is the optional neighborhood-exploration capability of an
// oracle: fetching one full adjacency row, and hinting that several rows
// are about to be read. Answers must agree cell-for-cell with the scalar
// probes — Neighbors(v)[i] == Neighbor(v, i) and len == Degree(v) — so
// exploration never changes what an algorithm computes, only how the
// backend is asked. Use the package-level Neighbors and Prefetch helpers
// rather than asserting the interface directly: they supply the scalar
// fallback on oracles without the capability.
type Explorer interface {
	// Neighbors returns v's full adjacency row. The slice may be shared
	// with the oracle's cache; callers must not modify it.
	Neighbors(v int) []int
	// Prefetch hints that the caller is about to read cells of the listed
	// rows. It is free at the probe-accounting level (only cells actually
	// read are charged) and may fetch speculatively.
	Prefetch(vs ...int)
}

// Neighbors returns v's full adjacency row through o: the Explorer
// capability when o has it, otherwise the equivalent scalar loop (one
// Degree probe plus one Neighbor probe per cell, stopping at the first
// out-of-range answer).
func Neighbors(o Oracle, v int) []int {
	if e, ok := o.(Explorer); ok {
		return e.Neighbors(v)
	}
	deg := o.Degree(v)
	row := make([]int, 0, deg)
	for i := 0; i < deg; i++ {
		w := o.Neighbor(v, i)
		if w < 0 {
			break
		}
		row = append(row, w)
	}
	return row
}

// Prefetch hints to o that the listed adjacency rows are about to be read.
// On oracles without the Explorer capability it is a no-op — the hint only
// ever changes how probes are transported, never their answers or their
// per-cell accounting. A nil oracle is tolerated (also a no-op) so shared
// helpers can hint opportunistically.
func Prefetch(o Oracle, vs ...int) {
	if o == nil || len(vs) == 0 {
		return
	}
	if e, ok := o.(Explorer); ok {
		e.Prefetch(vs...)
	}
}

// Stats is a snapshot of probe counts by type, plus the batch accounting
// of the exploration API and the chain's telemetry. Total — the theory's
// probe-complexity measure — counts cells only; Batches and the Telemetry
// figures price the transport and are reported separately.
type Stats struct {
	Neighbor  uint64
	Degree    uint64
	Adjacency uint64
	// Batches counts neighborhood-exploration operations issued through
	// the oracle (one per Neighbors call and per non-empty Prefetch hint).
	Batches uint64
	Telemetry
}

// Total returns the total cell-probe count (the model's complexity
// measure; batches and round trips are transport accounting, not probes).
func (s Stats) Total() uint64 { return s.Neighbor + s.Degree + s.Adjacency }

// Add folds t into s, the Telemetry half by Telemetry.Add.
func (s *Stats) Add(t Stats) {
	s.Neighbor += t.Neighbor
	s.Degree += t.Degree
	s.Adjacency += t.Adjacency
	s.Batches += t.Batches
	s.Telemetry.Add(t.Telemetry)
}

// Sub returns s - t, for before/after deltas; the Telemetry half by
// Telemetry.Sub.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Neighbor:  s.Neighbor - t.Neighbor,
		Degree:    s.Degree - t.Degree,
		Adjacency: s.Adjacency - t.Adjacency,
		Batches:   s.Batches - t.Batches,
		Telemetry: s.Telemetry.Sub(t.Telemetry),
	}
}

// Counter wraps an Oracle and counts probes by type. It is not safe for
// concurrent use; harnesses that parallelize give each worker its own
// Counter (LCA instances are cheap and deterministic to rebuild).
//
// Counter is exploration-aware: Neighbors charges exactly what the scalar
// loop would (one Degree plus one Neighbor per cell) and Prefetch charges
// nothing per cell — both count one batch operation — so probe complexity
// is measured identically however the algorithm expresses its scans.
// Stats additionally carries the telemetry the wrapped chain produced
// since construction (or the last Reset): every Meter down the chain, and
// the producers of the source at its bottom.
type Counter struct {
	inner Oracle
	stats Stats
	chain *chainMeter // nil when the chain produces no telemetry
}

var (
	_ Oracle   = (*Counter)(nil)
	_ Explorer = (*Counter)(nil)
)

// NewCounter wraps inner with probe accounting.
func NewCounter(inner Oracle) *Counter {
	return &Counter{inner: inner, chain: newChainMeter(inner)}
}

// Unwrap returns the wrapped oracle.
func (c *Counter) Unwrap() Oracle { return c.inner }

// N implements Oracle (not counted; n is public knowledge in the model).
func (c *Counter) N() int { return c.inner.N() }

// Degree implements Oracle.
func (c *Counter) Degree(v int) int {
	c.stats.Degree++
	return c.inner.Degree(v)
}

// Neighbor implements Oracle.
func (c *Counter) Neighbor(v, i int) int {
	c.stats.Neighbor++
	return c.inner.Neighbor(v, i)
}

// Adjacency implements Oracle.
func (c *Counter) Adjacency(u, v int) int {
	c.stats.Adjacency++
	return c.inner.Adjacency(u, v)
}

// Neighbors implements Explorer, charging one Degree probe plus one
// Neighbor probe per returned cell — exactly the scalar loop's account.
func (c *Counter) Neighbors(v int) []int {
	row := Neighbors(c.inner, v)
	c.stats.Degree++
	c.stats.Neighbor += uint64(len(row))
	c.stats.Batches++
	return row
}

// Prefetch implements Explorer; hints are free at the cell level.
func (c *Counter) Prefetch(vs ...int) {
	if len(vs) == 0 {
		return
	}
	c.stats.Batches++
	Prefetch(c.inner, vs...)
}

// Stats returns the probe counts so far.
func (c *Counter) Stats() Stats {
	s := c.stats
	if c.chain != nil {
		s.Telemetry = c.chain.delta()
	}
	return s
}

// Reset zeroes the counters.
func (c *Counter) Reset() {
	c.stats = Stats{}
	if c.chain != nil {
		c.chain.reset()
	}
}

// ProbeKind identifies a probe type in a recorded trace.
type ProbeKind uint8

// Probe kinds.
const (
	KindNeighbor ProbeKind = iota
	KindDegree
	KindAdjacency
)

// Record is one recorded probe with its answer.
type Record struct {
	Kind   ProbeKind
	A, B   int // Neighbor: (v, i); Degree: (v, 0); Adjacency: (u, v)
	Answer int
}

// Recorder wraps an Oracle and records the full probe/answer trace, used by
// the lower-bound experiments and for debugging locality violations.
type Recorder struct {
	inner Oracle
	trace []Record
}

var _ Oracle = (*Recorder)(nil)

// NewRecorder wraps inner with trace recording.
func NewRecorder(inner Oracle) *Recorder { return &Recorder{inner: inner} }

// N implements Oracle.
func (r *Recorder) N() int { return r.inner.N() }

// Degree implements Oracle.
func (r *Recorder) Degree(v int) int {
	ans := r.inner.Degree(v)
	r.trace = append(r.trace, Record{Kind: KindDegree, A: v, Answer: ans})
	return ans
}

// Neighbor implements Oracle.
func (r *Recorder) Neighbor(v, i int) int {
	ans := r.inner.Neighbor(v, i)
	r.trace = append(r.trace, Record{Kind: KindNeighbor, A: v, B: i, Answer: ans})
	return ans
}

// Adjacency implements Oracle.
func (r *Recorder) Adjacency(u, v int) int {
	ans := r.inner.Adjacency(u, v)
	r.trace = append(r.trace, Record{Kind: KindAdjacency, A: u, B: v, Answer: ans})
	return ans
}

// Neighbors implements Explorer, recording the same trace the scalar loop
// would (one Degree record plus one Neighbor record per cell).
func (r *Recorder) Neighbors(v int) []int {
	row := Neighbors(r.inner, v)
	r.trace = append(r.trace, Record{Kind: KindDegree, A: v, Answer: len(row)})
	for i, w := range row {
		r.trace = append(r.trace, Record{Kind: KindNeighbor, A: v, B: i, Answer: w})
	}
	return row
}

// Prefetch implements Explorer; hints leave no trace (they read nothing).
func (r *Recorder) Prefetch(vs ...int) { Prefetch(r.inner, vs...) }

// Trace returns the recorded probes. The slice is shared; callers must not
// modify it.
func (r *Recorder) Trace() []Record { return r.trace }

// Reset clears the trace.
func (r *Recorder) Reset() { r.trace = r.trace[:0] }

// CachingOracle wraps an Oracle and memoizes answers, so repeated probes of
// the same cell are answered locally. In the LCA model repeated probes are
// usually counted once (the algorithm could have cached them itself); the
// experiments report both raw and deduplicated counts by stacking Counter
// outside and inside a CachingOracle.
//
// CachingOracle is safe for concurrent use when its inner oracle is (every
// source backend is), so one instance can be shared across parallel
// assembly workers — probes one worker pays for answer every worker's
// repeats. Concurrent misses on the same cell may probe the inner oracle
// more than once; determinism makes the answers identical, so the race is
// benign and only costs a duplicate probe.
type CachingOracle struct {
	inner     Oracle
	degrees   sync.Map // int -> int
	neighbors sync.Map // uint64 (v,i) -> int
	adjacency sync.Map // uint64 (u,v) -> int
	// tr, when non-nil, records cache-hit events on fully-memoized
	// Neighbors assemblies (tracing.go).
	tr *trace.Tracer
}

var _ Oracle = (*CachingOracle)(nil)

// NewCaching wraps inner with memoization.
func NewCaching(inner Oracle) *CachingOracle {
	return &CachingOracle{inner: inner}
}

// Unwrap returns the memoized oracle.
func (c *CachingOracle) Unwrap() Oracle { return c.inner }

// cacheKey packs a probe's two operands into one map key (operands are
// vertex IDs or list indices, both well under 2^32).
func cacheKey(a, b int) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// N implements Oracle.
func (c *CachingOracle) N() int { return c.inner.N() }

// Degree implements Oracle.
func (c *CachingOracle) Degree(v int) int {
	if d, ok := c.degrees.Load(v); ok {
		return d.(int)
	}
	d := c.inner.Degree(v)
	c.degrees.Store(v, d)
	return d
}

// Neighbor implements Oracle.
func (c *CachingOracle) Neighbor(v, i int) int {
	k := cacheKey(v, i)
	if w, ok := c.neighbors.Load(k); ok {
		return w.(int)
	}
	w := c.inner.Neighbor(v, i)
	c.neighbors.Store(k, w)
	// A Neighbor answer also pins down one Adjacency answer for free.
	if w >= 0 {
		c.adjacency.Store(cacheKey(v, w), i)
	}
	return w
}

// Adjacency implements Oracle.
func (c *CachingOracle) Adjacency(u, v int) int {
	k := cacheKey(u, v)
	if i, ok := c.adjacency.Load(k); ok {
		return i.(int)
	}
	i := c.inner.Adjacency(u, v)
	c.adjacency.Store(k, i)
	return i
}

// Neighbors implements Explorer: a fully cached row is assembled locally,
// anything else is fetched through the inner oracle and memoized cell by
// cell (priming the Adjacency cache on the way, like Neighbor does).
func (c *CachingOracle) Neighbors(v int) []int {
	if d, ok := c.degrees.Load(v); ok {
		deg := d.(int)
		row := make([]int, 0, deg)
		for i := 0; i < deg; i++ {
			w, ok := c.neighbors.Load(cacheKey(v, i))
			if !ok {
				row = nil
				break
			}
			row = append(row, w.(int))
		}
		if row != nil || deg == 0 {
			if tr := c.tr; tr != nil {
				tr.Event("oracle:neighbors", v, "cache-hit")
			}
			return row
		}
	}
	row := Neighbors(c.inner, v)
	c.degrees.Store(v, len(row))
	for i, w := range row {
		c.neighbors.Store(cacheKey(v, i), w)
		if w >= 0 {
			c.adjacency.Store(cacheKey(v, w), i)
		}
	}
	return row
}

// Prefetch implements Explorer, forwarding the hint so a prefetching inner
// oracle can prime its rows; the memo itself fills only from reads.
func (c *CachingOracle) Prefetch(vs ...int) { Prefetch(c.inner, vs...) }
