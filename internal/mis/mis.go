// Package mis implements the classical maximal-independent-set LCA via
// random-order greedy simulation (Rubinfeld-Tamir-Vardi-Xie 2011 /
// Nguyen-Onak): each vertex receives a hash-derived random priority, and v
// belongs to the MIS iff no lower-priority neighbor does. A query triggers
// a recursion over the lower-priority neighborhood; on bounded-degree
// graphs the expected query tree is constant-size, while for large maximum
// degree the probe complexity can grow exponentially in Delta — exactly the
// sparse-regime limitation that motivates the dense-graph spanner LCAs
// (see the experiment suite's E8).
//
// Answers and priorities live in a memo.Table: a map for an instance
// that answers a few vertices, slices indexed by vertex once it has
// answered n/16 of them (a batch build), where each vertex is hashed at
// most once. Either way a vertex's priority is hashed once per visit,
// not once per neighbor comparing against it.
package mis

import (
	"lca/internal/memo"
	"lca/internal/oracle"
	"lca/internal/rnd"
)

// The memo's answer codes; its zero value means "not answered yet".
const (
	outSet uint8 = 1 + iota
	inSet
)

// MIS is an LCA answering "is v in the maximal independent set?" queries,
// consistent with the greedy MIS under the hash-derived random vertex
// order. Construct with New; the zero value is unusable. Not safe for
// concurrent use.
type MIS struct {
	counter *oracle.Counter
	memo    memo.Table[uint8]
}

// New returns an MIS LCA over o. Answers depend only on (graph, seed).
func New(o oracle.Oracle, seed rnd.Seed) *MIS {
	return &MIS{
		counter: oracle.NewCounter(o),
		memo:    memo.Make[uint8](o.N(), rnd.NewFamily(seed.Derive(0x315), 16)),
	}
}

// ProbeStats exposes cumulative probe counts.
func (m *MIS) ProbeStats() oracle.Stats { return m.counter.Stats() }

// Before reports whether u precedes v in the random greedy order
// (priorities tie-broken by ID, so the order is a strict total order).
func (m *MIS) Before(u, v int) bool { return m.memo.Before(u, v, m.memo.Priority(v)) }

// QueryVertex reports whether v is in the MIS. The recursion follows the
// greedy rule: v joins iff every neighbor preceding v in the random order
// stays out. The neighborhood arrives as one exploration (a single batched
// round trip on network backends); the recursion still stops at the first
// lower-priority neighbor found inside. v's priority is hashed once for
// the whole row. Results are memoized across queries (they are pure
// functions of graph and seed), which also keeps repeated sub-queries
// cheap.
func (m *MIS) QueryVertex(v int) bool {
	if a := m.memo.Get(v); a != 0 {
		return a == inSet
	}
	pv := m.memo.Priority(v)
	a := inSet
	for _, w := range m.counter.Neighbors(v) {
		if m.memo.Before(w, v, pv) && m.QueryVertex(w) {
			a = outSet
			break
		}
	}
	m.memo.Put(v, a)
	return a == inSet
}
