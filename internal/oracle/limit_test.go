package oracle

import (
	"testing"
)

func TestLimitOracleAllowsWithinBudget(t *testing.T) {
	l := NewLimit(New(testGraph()), 5)
	for i := 0; i < 5; i++ {
		l.Degree(0)
	}
	if l.Used() != 5 {
		t.Fatalf("Used = %d", l.Used())
	}
}

func TestLimitOraclePanicsOverBudget(t *testing.T) {
	l := NewLimit(New(testGraph()), 2)
	l.Neighbor(0, 0)
	l.Adjacency(0, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected ErrBudgetExceeded panic")
		}
		e, ok := r.(ErrBudgetExceeded)
		if !ok {
			t.Fatalf("unexpected panic value %v", r)
		}
		if e.Budget != 2 || e.Error() == "" {
			t.Fatalf("bad error payload: %+v", e)
		}
	}()
	l.Degree(0)
}

func TestLimitOracleNIsFree(t *testing.T) {
	l := NewLimit(New(testGraph()), 1)
	for i := 0; i < 10; i++ {
		l.N()
	}
	if l.Used() != 0 {
		t.Fatal("N() must not consume budget")
	}
}

func TestWithinBudget(t *testing.T) {
	l := NewLimit(New(testGraph()), 3)
	ok := l.WithinBudget(func() {
		l.Degree(0)
		l.Degree(1)
	})
	if !ok {
		t.Fatal("two probes should fit in a budget of three")
	}
	ok = l.WithinBudget(func() {
		for i := 0; i < 10; i++ {
			l.Degree(0)
		}
	})
	if ok {
		t.Fatal("ten probes must not fit in a budget of three")
	}
	// Reset happens per call: a new run starts fresh.
	if !l.WithinBudget(func() { l.Degree(0) }) {
		t.Fatal("budget window must reset between runs")
	}
}

func TestWithinBudgetPropagatesOtherPanics(t *testing.T) {
	l := NewLimit(New(testGraph()), 3)
	defer func() {
		if recover() == nil {
			t.Fatal("unrelated panics must propagate")
		}
	}()
	l.WithinBudget(func() { panic("unrelated") })
}

// tripCountingOracle is a test double for a network-backed chain: every
// probe consumes one "round trip" visible through the
// source.RoundTripCounter capability.
type tripCountingOracle struct {
	Oracle
	trips uint64
}

func (o *tripCountingOracle) Degree(v int) int {
	o.trips++
	return o.Oracle.Degree(v)
}

func (o *tripCountingOracle) Neighbor(v, i int) int {
	o.trips++
	return o.Oracle.Neighbor(v, i)
}

func (o *tripCountingOracle) Adjacency(u, v int) int {
	o.trips++
	return o.Oracle.Adjacency(u, v)
}

func (o *tripCountingOracle) RoundTrips() uint64 { return o.trips }

func TestLimitTripsLocalChainUnchanged(t *testing.T) {
	inner := New(testGraph())
	if got := NewLimitTrips(inner, 1); got != inner {
		t.Fatal("a chain without RoundTripCounter must be returned unchanged")
	}
}

func TestLimitTripsPanicsOverBudget(t *testing.T) {
	inner := &tripCountingOracle{Oracle: New(testGraph())}
	l := NewLimitTrips(inner, 2)
	l.Degree(0)
	l.Degree(1) // at the budget: still allowed
	defer func() {
		r := recover()
		e, ok := r.(ErrTripBudgetExceeded)
		if !ok {
			t.Fatalf("expected ErrTripBudgetExceeded, got %v", r)
		}
		if e.Budget != 2 || e.Error() == "" {
			t.Fatalf("bad error payload: %+v", e)
		}
	}()
	l.Degree(2)
}

func TestLimitTripsForwardsCounters(t *testing.T) {
	inner := &tripCountingOracle{Oracle: New(testGraph())}
	inner.trips = 7 // pre-existing traffic: the budget window starts here
	l := NewLimitTrips(inner, 100)
	c := NewCounter(l)
	c.Degree(0)
	if rt := measure(l).RoundTrips; rt != 8 {
		t.Fatalf("RoundTrips through the limiter = %d, want 8", rt)
	}
	if rt := c.Stats().RoundTrips; rt != 1 {
		t.Fatalf("Counter over the limiter: RoundTrips = %d, want 1", rt)
	}
}
