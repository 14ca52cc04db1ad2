package oracle

// Probe budget enforcement. The theory states per-query probe bounds; the
// LimitOracle turns them into a hard runtime contract so tests and
// deployments can prove — not just measure — that an algorithm stays
// local.

import (
	"fmt"

	"lca/internal/source"
	"lca/internal/trace"
)

// ErrBudgetExceeded is the panic value raised by LimitOracle when a probe
// would exceed the budget. It is a typed value so harnesses can recover it
// selectively.
type ErrBudgetExceeded struct {
	Budget uint64
}

// Error implements the error interface.
func (e ErrBudgetExceeded) Error() string {
	return fmt.Sprintf("oracle: probe budget %d exceeded", e.Budget)
}

// LimitOracle wraps an Oracle and panics with ErrBudgetExceeded once more
// than Budget probes have been issued since construction or the last
// Reset. Not safe for concurrent use.
//
// The budget is charged per cell, exploration included: Neighbors spends
// one probe for the degree plus one per returned cell, and Prefetch hints
// spend nothing — a backend batching rows into fewer round trips does not
// loosen the theory's probe bound, and round trips are accounted
// separately (Stats.RoundTrips).
type LimitOracle struct {
	inner  Oracle
	budget uint64
	used   uint64
	// tr, when non-nil, records a budget-exhausted event just before the
	// ErrBudgetExceeded panic (tracing.go).
	tr *trace.Tracer
}

var (
	_ Oracle   = (*LimitOracle)(nil)
	_ Explorer = (*LimitOracle)(nil)
)

// NewLimit wraps inner with a hard probe budget.
func NewLimit(inner Oracle, budget uint64) *LimitOracle {
	return &LimitOracle{inner: inner, budget: budget}
}

// Unwrap returns the budgeted oracle.
func (l *LimitOracle) Unwrap() Oracle { return l.inner }

// Used returns the number of probes spent so far.
func (l *LimitOracle) Used() uint64 { return l.used }

// Reset restarts the budget window.
func (l *LimitOracle) Reset() { l.used = 0 }

func (l *LimitOracle) spend() {
	if l.used >= l.budget {
		if tr := l.tr; tr != nil {
			tr.Event("oracle:budget", -1, "budget-exhausted")
		}
		panic(ErrBudgetExceeded{Budget: l.budget})
	}
	l.used++
}

// N implements Oracle (free, as everywhere in the model).
func (l *LimitOracle) N() int { return l.inner.N() }

// Degree implements Oracle.
func (l *LimitOracle) Degree(v int) int {
	l.spend()
	return l.inner.Degree(v)
}

// Neighbor implements Oracle.
func (l *LimitOracle) Neighbor(v, i int) int {
	l.spend()
	return l.inner.Neighbor(v, i)
}

// Adjacency implements Oracle.
func (l *LimitOracle) Adjacency(u, v int) int {
	l.spend()
	return l.inner.Adjacency(u, v)
}

// Neighbors implements Explorer, spending one probe for the degree plus
// one per cell of the row — the scalar loop's exact account. Over a
// plain backend the loop spends before each cell is probed, so the
// backend never serves a probe past the budget — the strict contract.
// Over an exploring inner oracle the row arrives as one speculative
// batch (exactly what a free Prefetch hint would fetch) and the per-cell
// charges land as the cells are accounted: the budget panic still fires
// before any answer beyond it reaches the caller's logic, while the
// transport-level overshoot is bounded by the one row — the same
// speculation Prefetch is documented to perform.
func (l *LimitOracle) Neighbors(v int) []int {
	e, ok := l.inner.(Explorer)
	if !ok {
		l.spend()
		deg := l.inner.Degree(v)
		row := make([]int, 0, deg)
		for i := 0; i < deg; i++ {
			l.spend()
			w := l.inner.Neighbor(v, i)
			if w < 0 {
				break
			}
			row = append(row, w)
		}
		return row
	}
	l.spend()
	row := e.Neighbors(v)
	for range row {
		l.spend()
	}
	return row
}

// Prefetch implements Explorer; hints are free — only cells the algorithm
// actually reads count against the budget.
func (l *LimitOracle) Prefetch(vs ...int) { Prefetch(l.inner, vs...) }

// ErrTripBudgetExceeded is the panic value raised by the round-trip
// limiter once the backend has consumed more than Budget network round
// trips for the wrapped chain. Typed like ErrBudgetExceeded so harnesses
// and servers can recover it selectively.
type ErrTripBudgetExceeded struct {
	Budget uint64
}

// Error implements the error interface.
func (e ErrTripBudgetExceeded) Error() string {
	return fmt.Sprintf("oracle: round-trip budget %d exceeded", e.Budget)
}

// NewLimitTrips wraps inner with a hard network round-trip budget: once
// the source.RoundTripCounter at the bottom of inner's chain has advanced
// more than budget trips past its value at construction, the next oracle
// operation panics with ErrTripBudgetExceeded. Round trips are consumed inside the backend, so
// the check runs after each operation — the overshoot is bounded by one
// operation's trips (one batch at most), and no answer past the budget
// ever reaches the caller's logic. Chains without the capability (local
// backends) have nothing to bound and are returned unchanged.
func NewLimitTrips(inner Oracle, budget uint64) Oracle {
	rt, ok := bottom(inner).(source.RoundTripCounter)
	if !ok {
		return inner
	}
	return &limitTripsOracle{inner: inner, rt: rt, budget: budget, rt0: rt.RoundTrips()}
}

type limitTripsOracle struct {
	inner  Oracle
	rt     source.RoundTripCounter
	budget uint64
	rt0    uint64
	// tr, when non-nil, records a trip-budget-exhausted event just before
	// the ErrTripBudgetExceeded panic (tracing.go).
	tr *trace.Tracer
}

var (
	_ Oracle   = (*limitTripsOracle)(nil)
	_ Explorer = (*limitTripsOracle)(nil)
)

// Unwrap returns the trip-budgeted oracle.
func (l *limitTripsOracle) Unwrap() Oracle { return l.inner }

func (l *limitTripsOracle) check() {
	if l.rt.RoundTrips()-l.rt0 > l.budget {
		if tr := l.tr; tr != nil {
			tr.Event("oracle:budget", -1, "trip-budget-exhausted")
		}
		panic(ErrTripBudgetExceeded{Budget: l.budget})
	}
}

// N implements Oracle (free, no transport).
func (l *limitTripsOracle) N() int { return l.inner.N() }

// Degree implements Oracle.
func (l *limitTripsOracle) Degree(v int) int {
	d := l.inner.Degree(v)
	l.check()
	return d
}

// Neighbor implements Oracle.
func (l *limitTripsOracle) Neighbor(v, i int) int {
	w := l.inner.Neighbor(v, i)
	l.check()
	return w
}

// Adjacency implements Oracle.
func (l *limitTripsOracle) Adjacency(u, v int) int {
	i := l.inner.Adjacency(u, v)
	l.check()
	return i
}

// Neighbors implements Explorer.
func (l *limitTripsOracle) Neighbors(v int) []int {
	row := Neighbors(l.inner, v)
	l.check()
	return row
}

// Prefetch implements Explorer; speculative fetches consume round trips,
// so hints are checked too — a budget-capped tenant cannot smuggle
// unbounded transport through free hints.
func (l *limitTripsOracle) Prefetch(vs ...int) {
	Prefetch(l.inner, vs...)
	l.check()
}

// WithinBudget runs fn and reports whether it completed without exhausting
// the budget; the budget window is reset first. Other panics propagate.
func (l *LimitOracle) WithinBudget(fn func()) (ok bool) {
	l.Reset()
	defer func() {
		if r := recover(); r != nil {
			if _, isBudget := r.(ErrBudgetExceeded); isBudget {
				ok = false
				return
			}
			panic(r)
		}
	}()
	fn()
	return true
}
