package source

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lca/internal/gen"
	"lca/internal/graph"
)

// writeCSRFile saves g as a CSR binary under the test's temp dir and
// returns the path.
func writeCSRFile(t testing.TB, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.csr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteCSR(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestConformanceBackends runs the Source contract suite against every
// local backend family — the implicit generators across their degenerate
// shapes, the in-memory adapter, and the CSR reader on both sorted and
// shuffled files. The remote and sharded backends run the same suite over
// httptest shards in remote_test.go.
func TestConformanceBackends(t *testing.T) {
	static := func(src Source) Factory {
		return func(testing.TB) Source { return src }
	}
	offsets, err := gen.CirculantOffsets(64, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := Circulant(64, offsets)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		open Factory
	}{
		{"ring/0", static(Ring(0))},
		{"ring/2", static(Ring(2))},
		{"ring/5", static(Ring(5))},
		{"ring/100", static(Ring(100))},
		{"grid/1x1", static(Grid(1, 1))},
		{"grid/1x6", static(Grid(1, 6))},
		{"grid/4x7", static(Grid(4, 7))},
		{"torus/2x2", static(Torus(2, 2))},
		{"torus/5x6", static(Torus(5, 6))},
		{"circulant/64d8", static(circ)},
		{"blockrandom/100", static(BlockRandom(100, 16, 5, 11))},
		{"blockrandom/ragged", static(BlockRandom(37, 16, 4, 3))},
		{"graph/gnp", static(FromGraph(gen.Gnp(120, 0.07, 3)))},
		{"graph/empty", static(FromGraph(gen.Gnp(10, 0, 1)))},
		{"csr/shuffled", func(t testing.TB) Source {
			c, err := OpenCSR(writeCSRFile(t, gen.Gnp(150, 0.06, 21)))
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"csr/sorted", func(t testing.TB) Source {
			g := gen.Gnp(150, 0.06, 21)
			b := graph.NewBuilder(g.N())
			for _, e := range g.Edges() {
				b.AddEdge(e.U, e.V)
			}
			c, err := OpenCSR(writeCSRFile(t, b.Build()))
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"csrmmap/shuffled", func(t testing.TB) Source {
			c, err := OpenCSRMmap(writeCSRFile(t, gen.Gnp(150, 0.06, 21)))
			if err != nil {
				if errors.Is(err, ErrMmapUnsupported) {
					t.Skip("mmap unsupported on this platform")
				}
				t.Fatal(err)
			}
			return c
		}},
		{"csrmmap/sorted", func(t testing.TB) Source {
			g := gen.Gnp(150, 0.06, 21)
			b := graph.NewBuilder(g.N())
			for _, e := range g.Edges() {
				b.AddEdge(e.U, e.V)
			}
			c, err := OpenCSRMmap(writeCSRFile(t, b.Build()))
			if err != nil {
				if errors.Is(err, ErrMmapUnsupported) {
					t.Skip("mmap unsupported on this platform")
				}
				t.Fatal(err)
			}
			return c
		}},
		{"sharded/local-replicas", func(t testing.TB) Source {
			s, err := NewSharded([]Source{Ring(60), Ring(60), Ring(60)})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		// The "-lru" name is historical (the fleet once ran under a probe
		// LRU); it is kept so this case's test IDs stay comparable.
		{"sharded/local-lru", func(t testing.TB) Source {
			s, err := NewSharded([]Source{BlockRandom(90, 16, 5, 4), BlockRandom(90, 16, 5, 4)})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { TestConformance(t, c.open) })
	}
}

// TestConformanceSampleIsExhaustiveWhenSmall pins the suite's probing
// breadth so a refactor cannot silently hollow it out.
func TestConformanceSampleIsExhaustiveWhenSmall(t *testing.T) {
	if got := conformanceSample(5); len(got) != 5 {
		t.Fatalf("sample(5) has %d vertices, want all 5", len(got))
	}
	big := conformanceSample(1_000_000)
	if len(big) != maxConformanceSample {
		t.Fatalf("sample(1e6) has %d vertices, want %d", len(big), maxConformanceSample)
	}
	for _, v := range big {
		if v < 0 || v >= 1_000_000 {
			t.Fatalf("sampled vertex %d out of range", v)
		}
	}
}

// TestShardedRouting pins the consistent-hash router: deterministic,
// in-range, and spreading load across shards rather than collapsing onto
// one.
func TestShardedRouting(t *testing.T) {
	s, err := newSharded([]Source{Ring(10_000), Ring(10_000), Ring(10_000), Ring(10_000)})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for v := 0; v < 10_000; v++ {
		sh := s.shardFor(v)
		if sh < 0 || sh >= 4 {
			t.Fatalf("shardFor(%d) = %d, out of range", v, sh)
		}
		if again := s.shardFor(v); again != sh {
			t.Fatalf("shardFor(%d) flapped: %d then %d", v, sh, again)
		}
		counts[sh]++
	}
	for i, c := range counts {
		// Uniform would be 2500; require each shard to own a fair share.
		if c < 1500 || c > 3500 {
			t.Fatalf("shard %d owns %d of 10000 vertices, outside [1500,3500]: %v", i, c, counts)
		}
	}
	// Consistency: dropping the last shard must not remap vertices owned
	// by the surviving shards among themselves.
	s3, err := newSharded([]Source{Ring(10_000), Ring(10_000), Ring(10_000)})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 10_000; v++ {
		before := s.shardFor(v)
		if before < 3 && s3.shardFor(v) != before {
			t.Fatalf("vertex %d moved from surviving shard %d to %d when shard 3 left", v, before, s3.shardFor(v))
		}
	}
}

// TestShardedRejectsMismatchedReplicas pins the replica invariant.
func TestShardedRejectsMismatchedReplicas(t *testing.T) {
	if _, err := NewSharded([]Source{Ring(10), Ring(11)}); err == nil {
		t.Fatal("NewSharded accepted shards with different n")
	}
	if _, err := NewSharded(nil); err == nil {
		t.Fatal("NewSharded accepted zero shards")
	}
	if _, err := NewSharded([]Source{Ring(10), Grid(2, 5)}); err == nil {
		t.Fatal("NewSharded accepted shards with mismatched edge counts")
	}
}

// TestShardedCapabilities: capabilities surface on the dynamic view iff
// every shard agrees.
func TestShardedCapabilities(t *testing.T) {
	s, err := NewSharded([]Source{Ring(30), Ring(30)})
	if err != nil {
		t.Fatal(err)
	}
	if mc, ok := EdgeCounterOf(s); !ok || mc.M() != 30 {
		t.Fatalf("sharded ring lost EdgeCounter (ok=%v)", ok)
	}
	if db, ok := DegreeBounderOf(s); !ok || db.MaxDegree() != 2 {
		t.Fatalf("sharded ring lost DegreeBounder (ok=%v)", ok)
	}
	// blockrandom has neither capability; the composite must not invent
	// them.
	s2, err := NewSharded([]Source{BlockRandom(50, 16, 4, 1), BlockRandom(50, 16, 4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := EdgeCounterOf(s2); ok {
		t.Fatal("sharded blockrandom invented an EdgeCounter capability")
	}
	if _, ok := DegreeBounderOf(s2); ok {
		t.Fatal("sharded blockrandom invented a DegreeBounder capability")
	}
	// Every fleet reports per-replica health, live at rest.
	health, ok := HealthOf(s)
	if !ok || len(health) != 2 {
		t.Fatalf("sharded fleet health: ok=%v, %d entries, want 2", ok, len(health))
	}
	for i, h := range health {
		if h.State != ShardLive {
			t.Fatalf("healthy shard %d reports state %q, want %q", i, h.State, ShardLive)
		}
	}
}
