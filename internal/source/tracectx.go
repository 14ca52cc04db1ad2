package source

// Scoped views and trace context for the network probing paths. The
// Source interface is deliberately context-free (probes are the model's
// unit of cost, not an RPC framework), so per-chain accounting and trace
// context ride one seam: Scope hands each chain or request its own view
// of a network source, and every layer below threads a probeScope value
// instead of growing its signatures one argument at a time.

import "lca/internal/trace"

// probeScope is the attribution state threaded down the network probing
// paths: the issuer's tally plus, when traced, the tracer and the span id
// that rpc spans parent under. Parent is captured by the caller before
// any concurrent fan-out (hedges, per-shard batch goroutines), so the
// implicit Push/Pop parent is never read from a goroutine. The zero
// probeScope counts nothing and traces nothing.
type probeScope struct {
	t      *tally
	tr     *trace.Tracer
	parent uint32
}

// Scope returns src's scoped view recording its spans into tr when src
// is a Scoper (Remote, Sharded), and src itself otherwise: a local
// backend's probes are memory reads, with no transport to count and no
// spans to record. oracle.NewChain scopes every chain with it, so each
// chain counts only its own traffic; serve scopes each request before its
// input-edge check, and the wire handlers each shard request.
func Scope(src Source, tr *trace.Tracer) Source {
	if s, ok := src.(Scoper); ok {
		return s.Scope(tr)
	}
	return src
}

// scopable is a network source as its views probe it: the scalar probe
// and the capability view, each counted on the issuer's tally.
type scopable interface {
	Source
	probe(ps probeScope, op string, a, b int) int
	caps(t *tally) Caps
}

// view is the scoped view of a Remote or a Sharded (Scoper): it probes
// through its source and counts into its own tally, which also adds to
// the source's.
type view struct {
	tally
	src scopable
}

var (
	_ Source           = (*view)(nil)
	_ CapSource        = (*view)(nil)
	_ Scoper           = (*view)(nil)
	_ RoundTripCounter = (*view)(nil)
	_ FailoverCounter  = (*view)(nil)
	_ AttestCounter    = (*view)(nil)
)

// Scope implements Scoper: a view is already scoped, so it is its own.
func (v *view) Scope(*trace.Tracer) Source { return v }

func (v *view) N() int { return v.src.N() }

func (v *view) Degree(u int) int { return v.src.probe(v.scope(), OpDegree, u, 0) }

func (v *view) Neighbor(u, i int) int { return v.src.probe(v.scope(), OpNeighbor, u, i) }

func (v *view) Adjacency(u, w int) int { return v.src.probe(v.scope(), OpAdjacency, u, w) }

// Caps implements CapSource: the source's capabilities, with RandomEdge
// and FetchRows counted on the view.
func (v *view) Caps() Caps { return v.src.caps(&v.tally) }

// Span op names for the client-side probing layers. Constants, so the
// untraced path never concatenates.
func rpcSpanOp(op string) string {
	switch op {
	case OpDegree:
		return "rpc:degree"
	case OpNeighbor:
		return "rpc:neighbor"
	case OpAdjacency:
		return "rpc:adjacency"
	case OpRandomEdge:
		return "rpc:randomedge"
	case OpRowFull:
		return "rpc:rowfull"
	}
	return "rpc:probe"
}

// probeSpanOp names a fleet-level probe span ("probe:degree"), the span
// whose children are the rpc attempts the probe actually cost.
func probeSpanOp(op string) string {
	switch op {
	case OpDegree:
		return "probe:degree"
	case OpNeighbor:
		return "probe:neighbor"
	case OpAdjacency:
		return "probe:adjacency"
	case OpRandomEdge:
		return "probe:randomedge"
	}
	return "probe:probe"
}

// shardSpanOp names a shard-side (server) span for one wire probe.
func shardSpanOp(op string) string {
	switch op {
	case OpDegree:
		return "shard:degree"
	case OpNeighbor:
		return "shard:neighbor"
	case OpAdjacency:
		return "shard:adjacency"
	case OpRandomEdge:
		return "shard:randomedge"
	case OpRowFull:
		return "shard:rowfull"
	}
	return "shard:probe"
}
