package oracle

import (
	"testing"

	"lca/internal/trace"
)

// TestNewChainLayerOrder pins the builder's one layer order — source
// view, row tier, probe budget, round-trip budget — and that every
// layer receives the chain's tracer when it is built.
func TestNewChainLayerOrder(t *testing.T) {
	src := newBatchSource(testGraph())
	if o := NewChain(src, ChainConfig{}); o != Oracle(src) {
		t.Fatalf("zero config built %T, want the source itself", o)
	}
	if _, ok := NewChain(src, ChainConfig{ProbeBudget: 9}).(*LimitOracle); !ok {
		t.Fatal("a probe budget alone must return the *LimitOracle its holder resets")
	}
	tr := trace.New(trace.NewID(), trace.DefaultMaxSpans)
	l2 := NewRowCache(8)
	o := NewChain(src, ChainConfig{Prefetch: true, RowCache: l2, ProbeBudget: 9, TripBudget: 9, Tracer: tr})
	trips, ok := o.(*limitTripsOracle)
	if !ok || trips.tr != tr {
		t.Fatalf("top layer %T must be the traced round-trip budget", o)
	}
	limit, ok := trips.Unwrap().(*LimitOracle)
	if !ok || limit.tr != tr {
		t.Fatalf("under the trip budget: %T, want the traced probe budget", trips.Unwrap())
	}
	tier, ok := limit.Unwrap().(*TieredOracle)
	if !ok || tier.tr != tr || tier.l2 != l2 {
		t.Fatalf("under the probe budget: %T, want the traced row tier with the shared L2", limit.Unwrap())
	}
	if tier.Unwrap() != Oracle(src) {
		t.Fatalf("the tier reads %T, want the source", tier.Unwrap())
	}
	if _, ok := NewChain(src, ChainConfig{RowCache: l2}).(*TieredOracle); !ok {
		t.Fatal("a row cache alone must build the row tier")
	}
}
