// Package core defines the local-computation-algorithm abstractions shared
// by every algorithm family in this library, and the harness that turns
// per-query answers into global solutions for verification and
// experimentation.
//
// An LCA is a query-answering object: given an edge or vertex it returns
// that element's role in one fixed global solution, consulting only the
// probe oracle and a short seed. The harness enumerates all queries to
// materialize the solution — something a real deployment never does, but
// which is exactly how the theory's guarantees (consistency, stretch,
// maximality, ...) become checkable.
package core

import (
	"fmt"

	"lca/internal/graph"
	"lca/internal/oracle"
)

// EdgeLCA answers membership queries about a fixed subgraph H of the input
// graph: QueryEdge(u, v) reports whether edge (u,v) belongs to H. Answers
// must be symmetric and consistent across queries. (u,v) must be an edge of
// the input graph.
type EdgeLCA interface {
	QueryEdge(u, v int) bool
}

// VertexLCA answers membership queries about a fixed vertex set (for
// example, a maximal independent set).
type VertexLCA interface {
	QueryVertex(v int) bool
}

// LabelLCA answers labeling queries about a fixed vertex labeling (for
// example, a proper coloring).
type LabelLCA interface {
	QueryLabel(v int) int
}

// ProbeReporter is implemented by LCAs that expose their probe counter for
// per-query accounting.
type ProbeReporter interface {
	ProbeStats() oracle.Stats
}

// QueryStats aggregates per-query probe counts across a batch of queries.
// ByKind carries the transport accounting too: Batches (neighborhood
// operations issued) and the chain's Telemetry (round trips, 0 on local
// chains, and the rest) accumulate alongside the cell counts, while
// MaxTotal/SumTotal/Mean stay pure cell-probe measures — the theory's
// metric is untouched by how probes are transported.
type QueryStats struct {
	Queries  int
	MaxTotal uint64
	SumTotal uint64
	ByKind   oracle.Stats
}

// Observe folds one query's probe delta into the aggregate.
func (q *QueryStats) Observe(delta oracle.Stats) {
	q.Queries++
	t := delta.Total()
	if t > q.MaxTotal {
		q.MaxTotal = t
	}
	q.SumTotal += t
	q.ByKind.Add(delta)
}

// Merge folds another aggregate into q (sums are added, max is the true
// max), used to combine per-worker stats after parallel assembly.
func (q *QueryStats) Merge(s QueryStats) {
	q.Queries += s.Queries
	q.SumTotal += s.SumTotal
	if s.MaxTotal > q.MaxTotal {
		q.MaxTotal = s.MaxTotal
	}
	q.ByKind.Add(s.ByKind)
}

// Mean returns the mean probes per query.
func (q QueryStats) Mean() float64 {
	if q.Queries == 0 {
		return 0
	}
	return float64(q.SumTotal) / float64(q.Queries)
}

// MeanRoundTrips returns the mean backend round trips per query (0 on
// local chains).
func (q QueryStats) MeanRoundTrips() float64 {
	if q.Queries == 0 {
		return 0
	}
	return float64(q.ByKind.RoundTrips) / float64(q.Queries)
}

// String renders the stats compactly; each telemetry figure appears, as
// name=value under its oracle.TelemetryFields name, only when nonzero.
func (q QueryStats) String() string {
	s := fmt.Sprintf("queries=%d max=%d mean=%.1f (nbr=%d deg=%d adj=%d)",
		q.Queries, q.MaxTotal, q.Mean(), q.ByKind.Neighbor, q.ByKind.Degree, q.ByKind.Adjacency)
	for _, f := range oracle.TelemetryFields {
		if v := f.Value(&q.ByKind.Telemetry); v > 0 {
			s += fmt.Sprintf(" %s=%d", f.Name, v)
		}
	}
	return s
}

// tally is one build loop's per-query accounting. It reads the LCA's
// ProbeStats once before the first query and once after each query: a
// query's cell probes are the difference of consecutive Totals, and
// ByKind is the last reading minus the first. That equals reading the
// stats before and after every query while nothing else moves the
// reading between one query's end and the next one's start, which holds
// when the chain's telemetry is its own: every Session build runs over
// an in-memory graph, whose telemetry is per chain.
type tally struct {
	r           ProbeReporter // nil: queries are only counted
	first, last oracle.Stats
	stats       QueryStats
}

// newTally starts the accounting of a loop over lca's queries.
func newTally(lca any) tally {
	var t tally
	if t.r, _ = lca.(ProbeReporter); t.r != nil {
		t.first = t.r.ProbeStats()
		t.last = t.first
	}
	return t
}

// observe accounts the query just answered.
func (t *tally) observe() {
	t.stats.Queries++
	if t.r == nil {
		return
	}
	prev := t.last.Total()
	t.last = t.r.ProbeStats()
	d := t.last.Total() - prev
	t.stats.MaxTotal = max(t.stats.MaxTotal, d)
	t.stats.SumTotal += d
}

// result returns the loop's QueryStats.
func (t *tally) result() QueryStats {
	t.stats.ByKind = t.last.Sub(t.first)
	return t.stats
}

// BuildSubgraph queries the LCA on every edge of g and assembles the
// selected subgraph. The returned stats carry per-query probe accounting if
// the LCA implements ProbeReporter (via a Counter it owns).
func BuildSubgraph(g *graph.Graph, lca EdgeLCA) (*graph.Graph, QueryStats) {
	return Subgraph(g, func() EdgeLCA { return lca }, 1, nil)
}

// BuildVertexSet queries the LCA on every vertex and returns the selected
// set as a boolean slice.
func BuildVertexSet(g *graph.Graph, lca VertexLCA) ([]bool, QueryStats) {
	return VertexSet(g, func() VertexLCA { return lca }, 1, nil)
}

// BuildLabels queries the LCA on every vertex and returns the labeling.
func BuildLabels(g *graph.Graph, lca LabelLCA) ([]int, QueryStats) {
	return Labels(g, func() LabelLCA { return lca }, 1, nil)
}

// CheckSymmetric verifies QueryEdge(u,v) == QueryEdge(v,u) on every edge
// and returns the first violating edge, if any.
func CheckSymmetric(g *graph.Graph, lca EdgeLCA) (graph.Edge, bool) {
	for _, e := range g.Edges() {
		if lca.QueryEdge(e.U, e.V) != lca.QueryEdge(e.V, e.U) {
			return e, false
		}
	}
	return graph.Edge{}, true
}

// CheckRepeatable verifies that re-querying every edge yields the same
// answers (no hidden mutable state leaking across queries).
func CheckRepeatable(g *graph.Graph, lca EdgeLCA) (graph.Edge, bool) {
	first := make(map[uint64]bool, g.M())
	for _, e := range g.Edges() {
		first[e.Key()] = lca.QueryEdge(e.U, e.V)
	}
	// Second pass in reverse order to perturb any order-sensitivity.
	edges := g.Edges()
	for i := len(edges) - 1; i >= 0; i-- {
		e := edges[i]
		if lca.QueryEdge(e.U, e.V) != first[e.Key()] {
			return e, false
		}
	}
	return graph.Edge{}, true
}
