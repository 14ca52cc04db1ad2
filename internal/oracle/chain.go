package oracle

// The chain builder. Every oracle chain in the system — Session point
// queries and batch builds, the server's per-request chains, estimation
// and the benchmarks — comes from NewChain, so layer order is decided in
// exactly one place.
//
// Every chain sits on its own scoped view of the source (source.Scope),
// so a network source's round trips, failovers, hedges and attestation
// figures are counted per chain; a local source is its own view. A traced
// chain hands its tracer to each layer as the layer is built: the source
// view records the backend's rpc spans, the row tier spans
// its row fetches (so those rpc spans nest under the miss that caused
// them) and marks rows served from a tier with cache-hit events, and
// the budget layers mark the exact probe at which a budget ran out.
// Every site guards on a nil tracer before doing any work, so the
// untraced hot path stays allocation-free.

import (
	"lca/internal/source"
	"lca/internal/trace"
)

// ChainConfig selects the layers of an oracle chain. The zero config
// selects none.
type ChainConfig struct {
	// Prefetch puts the row tier (TieredOracle) over the source.
	Prefetch bool
	// RowCache, when non-nil, also puts the row tier over the source and
	// gives it this shared L2.
	RowCache *RowCache
	// ProbeBudget, when positive, caps each query's cell probes
	// (NewLimit); the holder of the chain resets the window per query.
	ProbeBudget uint64
	// TripBudget, when positive, caps the chain's network round trips
	// (NewLimitTrips).
	TripBudget uint64
	// Tracer, when non-nil, is handed to the source view
	// (source.Scope) and to every layer.
	Tracer *trace.Tracer
}

// NewChain builds the oracle chain cfg describes over src, bottom to
// top: the source view, then the row tier, then the probe budget, then
// the round-trip budget. The zero config returns the source view alone,
// which is src itself for a local source. When cfg has a probe budget
// and no round-trip budget, the result is the *LimitOracle whose window
// the caller resets.
func NewChain(src source.Source, cfg ChainConfig) Oracle {
	src = source.Scope(src, cfg.Tracer)
	var o Oracle = src
	if cfg.Prefetch || cfg.RowCache != nil {
		t := NewTiered(src, cfg.RowCache)
		t.tr = cfg.Tracer
		o = t
	}
	if cfg.ProbeBudget > 0 {
		l := NewLimit(o, cfg.ProbeBudget)
		l.tr = cfg.Tracer
		o = l
	}
	if cfg.TripBudget > 0 {
		o = NewLimitTrips(o, cfg.TripBudget)
		if l, ok := o.(*limitTripsOracle); ok {
			l.tr = cfg.Tracer
		}
	}
	return o
}
