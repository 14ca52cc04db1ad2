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
// backend. An in-memory *graph.Graph implements Explorer by handing out
// its own rows, so a row costs neither a probe loop nor an allocation
// there; implicit families and CSR files keep the loop.
// AdjacencyEach(o, u, vs, idx, first) is the same kind of helper for a
// scan's Adjacency probes on one row: it answers Adjacency(u, vs[k])
// for k in order, each charged as one probe, and the AdjacencyScanner
// capability lets the mmap CSR source answer them in one pass over u's
// row. The payoff is the row tier, TieredOracle (tier.go): over a
// network-backed source with the source.RowFetcher capability (the
// rowfull wire op) it turns one exploration into one round trip and
// serves the subsequent scalar probes from the cached rows — collapsing
// deg+1 round trips per neighborhood into one, while per-cell probe
// accounting (Counter, LimitOracle) is unchanged: budgets and probe counts charge the cells the
// algorithm reads, and round trips are measured separately (Stats.Batches,
// Stats.RoundTrips). NewChain (chain.go) builds every chain.
//
// Explore(o, root, next) (explore.go) plans a whole query on top of the
// API: it prefetches the DAG of rows a recursive query will read, one
// level per Prefetch call issued on o, reading each fetched row back
// from the tier uncharged, while the algorithm supplies each vertex's
// children from its own order and memo. Round trips then follow the
// DAG's depth rather than its size, and the recursion that runs
// afterwards still decides every answer, probe count and budget. It is
// inert unless the chain's row tier fetches rows (the rowfull op), and
// under a probe budget (a LimitOracle in the chain), where free hints
// would fetch past what the budget lets the query read.
package oracle

import "lca/internal/source"

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
	// with the oracle's cache, or be an in-memory graph's own row;
	// callers must not modify it.
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
	return neighborsLoop(o, v)
}

// neighborsLoop is Neighbors as scalar probes on o, into a fresh row.
func neighborsLoop(o Oracle, v int) []int {
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

// AdjacencyScanner is the optional one-row Adjacency capability: it
// answers a scan's Adjacency probes on one row together. AdjacencyEach
// sets idx[k] to Adjacency(u, vs[k]) for k in order, stops after the
// first edge (idx[k] >= 0) when first is set, and returns how many
// targets it answered; idx must be at least as long as vs. Answers must
// equal the scalar probes', and each answered target counts as one
// Adjacency probe. Counter and the mmap CSR source (source.CSRMmap)
// implement it. Use the package-level AdjacencyEach helper rather than
// asserting the interface: it supplies the scalar loop on oracles
// without the capability, so a budget still stops at the exact probe.
type AdjacencyScanner interface {
	AdjacencyEach(u int, vs, idx []int, first bool) int
}

// AdjacencyEach answers Adjacency(u, vs[k]) into idx[k] for k in order
// through o, stopping after the first edge when first is set, and
// returns how many targets it answered: the AdjacencyScanner capability
// when o has it, otherwise the scalar loop.
func AdjacencyEach(o Oracle, u int, vs, idx []int, first bool) int {
	if a, ok := o.(AdjacencyScanner); ok {
		return a.AdjacencyEach(u, vs, idx, first)
	}
	return adjacencyLoop(o, u, vs, idx, first)
}

// adjacencyLoop is AdjacencyEach as scalar probes on o.
func adjacencyLoop(o Oracle, u int, vs, idx []int, first bool) int {
	for k, v := range vs {
		idx[k] = o.Adjacency(u, v)
		if first && idx[k] >= 0 {
			return k + 1
		}
	}
	return len(vs)
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
	// rows is inner's Explorer (an in-memory graph, the row tier, a
	// wrapper); nil sends Neighbors through the scalar loop.
	rows Explorer
	// scan is inner's AdjacencyScanner when inner answers the op itself
	// (a source with the capability, or a Counter over one); nil sends
	// AdjacencyEach through Adjacency, one probe at a time.
	scan AdjacencyScanner
}

var (
	_ Oracle           = (*Counter)(nil)
	_ Explorer         = (*Counter)(nil)
	_ AdjacencyScanner = (*Counter)(nil)
)

// NewCounter wraps inner with probe accounting.
func NewCounter(inner Oracle) *Counter {
	c := &Counter{inner: inner, chain: newChainMeter(inner)}
	c.rows, _ = inner.(Explorer)
	switch in := inner.(type) {
	case *Counter:
		if in.scan != nil {
			c.scan = in
		}
	case AdjacencyScanner:
		c.scan = in
	}
	return c
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

// AdjacencyEach implements AdjacencyScanner, charging one Adjacency
// probe per answered target: the scalar loop's account. Without an op
// below it runs that loop through Adjacency, which charges each probe
// before making it, so a probe that panics partway through a list (a
// budget running out) is charged exactly as a scalar one is.
func (c *Counter) AdjacencyEach(u int, vs, idx []int, first bool) int {
	if c.scan == nil {
		return adjacencyLoop(c, u, vs, idx, first)
	}
	n := c.scan.AdjacencyEach(u, vs, idx, first)
	c.stats.Adjacency += uint64(n)
	return n
}

// Neighbors implements Explorer, charging one Degree probe plus one
// Neighbor probe per returned cell — exactly the scalar loop's account,
// whether the row came from inner's Explorer or from that loop.
func (c *Counter) Neighbors(v int) []int {
	var row []int
	if c.rows != nil {
		row = c.rows.Neighbors(v)
	} else {
		row = neighborsLoop(c.inner, v)
	}
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
	if c.rows != nil {
		c.rows.Prefetch(vs...)
	}
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
