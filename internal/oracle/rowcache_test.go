package oracle

import (
	"sync"
	"testing"

	"lca/internal/graph"
)

// testGraph builds a deterministic pseudo-random graph for the tier
// tests: n vertices, ~n*d/2 edges from an LCG stream, no self-loops.
func tierGraph(n, d int) *graph.Graph {
	b := graph.NewBuilder(n)
	state := uint64(0x9E3779B97F4A7C15)
	next := func() int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for i := 0; i < n*d/2; i++ {
		u, v := next(), next()
		if u != v && !b.HasEdge(u, v) {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func TestRowArenaAbandonKeepsEscapedRows(t *testing.T) {
	var a rowArena
	first := a.alloc(4)
	for i := range first {
		first[i] = 100 + i
	}
	// Force an overflow: the arena must abandon its block, not recycle it
	// under the escaped slice.
	for i := 0; i < 4*rowArenaBlock; i += 1024 {
		a.alloc(1024)
	}
	for i, want := range []int{100, 101, 102, 103} {
		if first[i] != want {
			t.Fatalf("escaped cell %d overwritten: got %d, want %d", i, first[i], want)
		}
	}
	if got := len(a.alloc(3)); got != 3 {
		t.Fatalf("alloc(3) after abandon: len %d", got)
	}
	// An allocation larger than the block size must still be served whole.
	if got := len(a.alloc(rowArenaBlock + 1)); got != rowArenaBlock+1 {
		t.Fatalf("oversized alloc: len %d", got)
	}
}

func TestRowStoreGrowAndReset(t *testing.T) {
	const limit = 3 * rowStoreSeed // force at least one grow before reset
	s := newRowStore(limit)
	row := func(v int) []int { return []int{v, v + 1} }
	for v := 0; v < limit; v++ {
		s.put(v, row(v))
	}
	if s.count != limit {
		t.Fatalf("count = %d, want %d", s.count, limit)
	}
	for v := 0; v < limit; v++ {
		got, ok := s.get(v)
		if !ok || got[0] != v || got[1] != v+1 {
			t.Fatalf("get(%d) = %v, %v after grow", v, got, ok)
		}
	}
	if _, ok := s.get(limit + 7); ok {
		t.Fatal("get of absent key reported present")
	}
	// The next put past the limit resets the table first.
	s.put(limit, row(limit))
	if s.count != 1 {
		t.Fatalf("count after overflow reset = %d, want 1", s.count)
	}
	if _, ok := s.get(0); ok {
		t.Fatal("pre-reset entry survived the reset")
	}
	if got, ok := s.get(limit); !ok || got[0] != limit {
		t.Fatalf("post-reset put missing: %v, %v", got, ok)
	}
	// Re-putting an existing key must overwrite in place, not double-count.
	s.put(limit, []int{9})
	if got, _ := s.get(limit); len(got) != 1 || got[0] != 9 {
		t.Fatalf("re-put did not overwrite: %v", got)
	}
	if s.count != 1 {
		t.Fatalf("re-put changed count: %d", s.count)
	}
}

func TestRowCacheLRUEviction(t *testing.T) {
	c := NewRowCache(2)
	var arena rowArena
	c.Put(1, []int{11})
	c.Put(2, []int{22})
	if _, ok := c.Get(1, arena.alloc); !ok { // touch 1: now 2 is least recent
		t.Fatal("row 1 missing")
	}
	c.Put(3, []int{33}) // evicts 2
	if _, ok := c.Get(2, arena.alloc); ok {
		t.Fatal("LRU kept the least recently used row")
	}
	row1, ok1 := c.Get(1, arena.alloc)
	row3, ok3 := c.Get(3, arena.alloc)
	if !ok1 || !ok3 || row1[0] != 11 || row3[0] != 33 {
		t.Fatalf("surviving rows wrong: %v %v %v %v", row1, ok1, row3, ok3)
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestRowCacheCopiesBothWays(t *testing.T) {
	c := NewRowCache(4)
	var arena rowArena
	src := []int{1, 2, 3}
	c.Put(7, src)
	src[0] = 99 // caller mutates its slice after Put: cache must hold a copy
	got, ok := c.Get(7, arena.alloc)
	if !ok || got[0] != 1 {
		t.Fatalf("Put did not copy: %v %v", got, ok)
	}
	got[1] = 88 // reader mutates its copy: cache must be unaffected
	again, _ := c.Get(7, arena.alloc)
	if again[1] != 2 {
		t.Fatalf("Get did not copy out: %v", again)
	}
}

func TestRowCacheRecyclesEvictedBuffers(t *testing.T) {
	c := NewRowCache(2)
	var arena rowArena
	// Churn many same-class rows through a 2-entry cache; the size-class
	// free lists must keep Len bounded and the rows correct.
	for v := 0; v < 100; v++ {
		c.Put(v, []int{v, v, v, v, v})
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	for v := 98; v < 100; v++ {
		row, ok := c.Get(v, arena.alloc)
		if !ok || len(row) != 5 || row[0] != v {
			t.Fatalf("survivor %d wrong: %v %v", v, row, ok)
		}
	}
	if st := c.Stats(); st.Evictions != 98 {
		t.Fatalf("evictions = %d, want 98", st.Evictions)
	}
}

func TestTieredOracleMatchesSource(t *testing.T) {
	g := tierGraph(300, 6)
	for _, shared := range []*RowCache{nil, NewRowCache(64)} {
		backend := NewCounter(g) // each tier miss reads one degree here
		to := NewTiered(backend, shared)
		if to.N() != g.N() {
			t.Fatalf("N = %d, want %d", to.N(), g.N())
		}
		// Two passes, so the second is answered from the tiers.
		for pass := 0; pass < 2; pass++ {
			for v := 0; v < g.N(); v++ {
				if got, want := to.Degree(v), g.Degree(v); got != want {
					t.Fatalf("Degree(%d) = %d, want %d", v, got, want)
				}
				for i := 0; i <= g.Degree(v); i++ { // one past the end too
					if got, want := to.Neighbor(v, i), g.Neighbor(v, i); got != want {
						t.Fatalf("Neighbor(%d,%d) = %d, want %d", v, i, got, want)
					}
				}
				u := (v * 7) % g.N()
				if got, want := to.Adjacency(v, u), g.Adjacency(v, u); got != want {
					t.Fatalf("Adjacency(%d,%d) = %d, want %d", v, u, got, want)
				}
			}
		}
		if to.Degree(-1) != 0 || to.Degree(g.N()) != 0 || to.Neighbor(-1, 0) != -1 ||
			to.Adjacency(-1, 0) != -1 || to.Adjacency(0, g.N()) != -1 || to.Neighbors(-1) != nil {
			t.Fatal("out-of-range probes must answer the source conventions")
		}
		if st := measure(to); st.L1Hits == 0 || backend.Stats().Degree == 0 {
			t.Fatalf("tier traffic not accounted: %+v, %d misses", st, backend.Stats().Degree)
		}
	}
}

func TestTieredOracleSharedL2(t *testing.T) {
	g := tierGraph(200, 5)
	l2 := NewRowCache(256)
	warm := NewTiered(g, l2)
	for v := 0; v < g.N(); v++ {
		warm.Degree(v)
	}
	// A second instance over the same L2 must hit it instead of the
	// backend for rows the first one fetched.
	backend := NewCounter(g) // each tier miss reads one degree here
	cold := NewTiered(backend, l2)
	for v := 0; v < g.N(); v++ {
		if got, want := cold.Degree(v), g.Degree(v); got != want {
			t.Fatalf("Degree(%d) via L2 = %d, want %d", v, got, want)
		}
	}
	st := measure(cold)
	if st.L2Hits == 0 {
		t.Fatalf("second instance never hit the shared L2: %+v", st)
	}
	if misses := backend.Stats().Degree; st.L2Hits+misses != uint64(g.N()) {
		t.Fatalf("first-pass probes unaccounted: %+v and %d misses over n=%d", st, misses, g.N())
	}
}

func TestTieredOracleConcurrent(t *testing.T) {
	g := tierGraph(400, 6)
	l2 := NewRowCache(64)
	shared := NewTiered(g, l2) // one instance shared across goroutines
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			to := shared
			if w%2 == 0 {
				to = NewTiered(g, l2) // plus instances sharing only the L2
			}
			for q := 0; q < 2000; q++ {
				v := (q*31 + w*127) % g.N()
				if got, want := to.Degree(v), g.Degree(v); got != want {
					t.Errorf("Degree(%d) = %d, want %d", v, got, want)
					return
				}
				if d := g.Degree(v); d > 0 {
					i := q % d
					if got, want := to.Neighbor(v, i), g.Neighbor(v, i); got != want {
						t.Errorf("Neighbor(%d,%d) = %d, want %d", v, i, got, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestTieredOracleNeighborsSurvivesReset(t *testing.T) {
	const limit = 64
	g := tierGraph(3*limit, 4)
	to := NewTiered(g, nil)
	to.l1.limit = limit
	row := append([]int(nil), to.Neighbors(0)...)
	held := to.Neighbors(0) // arena-backed row held across L1 resets
	for v := 1; v < g.N(); v++ {
		to.Degree(v) // overflows the L1 store repeatedly
	}
	for i := range row {
		if held[i] != row[i] {
			t.Fatalf("held row cell %d changed across L1 reset: %d != %d", i, held[i], row[i])
		}
	}
}

func TestTieredOracleForwardsTransportCounters(t *testing.T) {
	bs := newBatchSource(tierGraph(50, 4))
	to := NewTiered(bs, nil)
	c := NewCounter(to)
	c.Degree(1)
	st := measure(to)
	if st.RoundTrips == 0 || c.Stats().RoundTrips != st.RoundTrips {
		t.Fatalf("RoundTrips not read through the tier: %+v, Counter %+v", st, c.Stats().Telemetry)
	}
	if st.Failovers != 0 || st.Hedges != 0 || st.AttestFailures != 0 ||
		st.ProofBytes != 0 || st.PageTouches != 0 || st.LocalHits != 0 {
		t.Fatalf("absent capabilities must read 0: %+v", st)
	}
}

func TestTieredOracleSteadyStateAllocs(t *testing.T) {
	g := tierGraph(500, 6)
	to := NewTiered(g, NewRowCache(512))
	for v := 0; v < g.N(); v++ { // prime every row
		to.Degree(v)
	}
	v := 0
	allocs := testing.AllocsPerRun(2000, func() {
		v = (v + 17) % 500
		to.Degree(v)
		to.Neighbor(v, 0)
		to.Adjacency(v, (v*3)%500)
	})
	if allocs != 0 {
		t.Fatalf("steady-state tiered probes allocate: %v allocs/run", allocs)
	}
}
