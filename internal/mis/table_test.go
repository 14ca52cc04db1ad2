package mis

// The vertex table's switch from a map to slices moves no answer and no
// probe: an instance that switches mid-sequence is compared query by
// query with one whose table stays a map, over a graph and over a CSR
// file holding neighbor IDs ≥ n.

import (
	"slices"
	"sync"
	"testing"

	"lca/internal/core"
	"lca/internal/gen"
	"lca/internal/memo/memotest"
	"lca/internal/oracle"
)

// queryBoth asks v of both instances and fails unless they give the same
// answer for the same probes.
func queryBoth(t *testing.T, sliced, mapped *MIS, q, v int) {
	t.Helper()
	b1, b2 := sliced.ProbeStats(), mapped.ProbeStats()
	got, want := sliced.QueryVertex(v), mapped.QueryVertex(v)
	d1, d2 := sliced.ProbeStats().Sub(b1), mapped.ProbeStats().Sub(b2)
	if got != want || d1 != d2 {
		t.Fatalf("query %d: QueryVertex(%d) = %v with %+v; map-mode instance %v with %+v", q, v, got, d1, want, d2)
	}
}

// TestMISTableSwitchDifferential: point queries in random order with
// repeats, then whole builds at 1 and 2 workers.
func TestMISTableSwitchDifferential(t *testing.T) {
	g := gen.Gnp(1000, 0.004, 9)
	sliced, mapped := New(g, 5), New(memotest.View{Oracle: g, Size: 1 << 40}, 5)
	switchedAt := -1
	for q, v := range memotest.TwicePermuted(g.N()) {
		queryBoth(t, sliced, mapped, q, v)
		if switchedAt < 0 && sliced.memo.Sliced() {
			switchedAt = q
		}
	}
	if switchedAt < 1 || mapped.memo.Sliced() {
		t.Fatalf("table switched at query %d (map-mode instance switched: %v), want mid-sequence", switchedAt, mapped.memo.Sliced())
	}
	for _, workers := range []int{1, 2} {
		build := func(o oracle.Oracle, wantSliced bool) ([]bool, core.QueryStats) {
			var mu sync.Mutex
			var insts []*MIS
			in, qs := core.BuildVertexSetParallel(g, func() core.VertexLCA {
				m := New(o, 5)
				mu.Lock()
				insts = append(insts, m)
				mu.Unlock()
				return m
			}, workers)
			for _, m := range insts {
				if m.memo.Sliced() != wantSliced {
					t.Errorf("%d workers: a build instance's table sliced %v, want %v", workers, !wantSliced, wantSliced)
				}
			}
			return in, qs
		}
		in, qs := build(g, true)
		want, wantQS := build(memotest.View{Oracle: g, Size: 1 << 40}, false)
		if !slices.Equal(in, want) || qs != wantQS {
			t.Fatalf("%d workers: BuildVertexSet stats %+v, map-mode %+v (sets equal: %v)", workers, qs, wantQS, slices.Equal(in, want))
		}
	}
}

// TestMISOutOfRangeNeighbor: neighbor IDs ≥ n stay map keys after the
// switch. Nothing panics, and answers and probes equal the map-mode
// instance's, for IDs first met before the switch and after it.
func TestMISOutOfRangeNeighbor(t *testing.T) {
	g := gen.Gnp(1000, 0.004, 9)
	var rows []int
	for u := 0; u < g.N(); u += 10 {
		if g.Degree(u) > 0 {
			rows = append(rows, u)
		}
	}
	src, bad := memotest.CorruptCSR(t, g, rows)
	sliced := New(memotest.View{Oracle: src, Size: src.N()}, 5)
	mapped := New(memotest.View{Oracle: src, Size: 1 << 40}, 5)
	var metBefore, metAfter bool
	for q, v := range memotest.TwicePermuted(g.N()) {
		wasSliced := sliced.memo.Sliced()
		var fresh []int
		for _, x := range bad {
			if sliced.memo.Get(x) == 0 {
				fresh = append(fresh, x)
			}
		}
		queryBoth(t, sliced, mapped, q, v)
		for _, x := range fresh {
			if sliced.memo.Get(x) != 0 {
				metAfter = metAfter || wasSliced
				metBefore = metBefore || !sliced.memo.Sliced()
			}
		}
	}
	if !metBefore || !metAfter {
		t.Fatalf("IDs ≥ n first answered before the switch: %v, after it: %v; want both", metBefore, metAfter)
	}
}

// TestMISQueryAllocFree: once its table has switched, a query over an
// in-memory graph allocates nothing. Rows are the graph's own
// (oracle.Explorer) and answers and priorities sit in slices.
func TestMISQueryAllocFree(t *testing.T) {
	g, err := gen.RandomRegular(20000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := New(g, 5)
	allocs := memotest.AllocsAfterSwitch(g, func(v int) { m.QueryVertex(v) }, m.memo.Sliced)
	if !m.memo.Sliced() || allocs != 0 {
		t.Fatalf("sliced %v, %.1f allocs per query; want 0 after the switch", m.memo.Sliced(), allocs)
	}
}
