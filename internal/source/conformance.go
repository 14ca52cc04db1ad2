package source

// The executable Source contract. With four backend families behind one
// interface — implicit generators, the in-memory adapter, disk-backed
// CSR, and network-backed remote/sharded — "behaves like a Source" must
// be a test every backend passes, not folklore. TestConformance is that
// test: backends register a Factory and inherit the full suite, so a new
// backend is conformant by construction or visibly broken.

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lca/internal/rnd"
)

// Factory opens a fresh instance of one backend for TestConformance. It
// is called once per subtest; factories needing scratch state (temp
// files, test servers) hang cleanup on t. The harness closes every source
// it opens.
type Factory func(t testing.TB) Source

// maxConformanceSample bounds the vertices each subtest probes — the
// suite must stay exhaustive on small backends and affordable on remote
// ones.
const maxConformanceSample = 48

// TestConformance runs the cross-backend Source contract suite against
// one backend:
//
//   - probes: Degree and Neighbor agree (exactly deg(v) in-range
//     neighbors, no self-loops or duplicates), and out-of-range neighbor
//     indices answer -1.
//   - adjacency: Adjacency(v, w) returns w's index for every real
//     neighbor, edges are symmetric, and non-edges (including self-pairs)
//     answer -1.
//   - batch (RowFetcher backends): FetchRows, the one batched request,
//     answers exactly the rows Degree/Neighbor assemble, in request
//     order; an empty request answers no rows and no error.
//   - determinism: equal probes answer equally across passes.
//   - close: Close (when the backend holds resources) succeeds and is
//     idempotent.
//   - concurrent: racing probers observe the same answers, a source
//     with the one-row Adjacency op (AdjacencyEach) included; run the
//     suite under -race to make this subtest a race detector.
func TestConformance(t *testing.T, open Factory) {
	t.Run("probes", func(t *testing.T) {
		src := open(t)
		defer closeConformance(t, src)
		n := src.N()
		if n < 0 || n > MaxVertices {
			t.Fatalf("N() = %d, outside [0,%d]", n, MaxVertices)
		}
		for _, v := range conformanceSample(n) {
			d := src.Degree(v)
			if d < 0 || d >= n {
				t.Fatalf("Degree(%d) = %d, outside [0,%d) on a simple graph", v, d, n)
			}
			seen := make(map[int]bool, d)
			for i := 0; i < d; i++ {
				w := src.Neighbor(v, i)
				if w < 0 || w >= n {
					t.Fatalf("Neighbor(%d,%d) = %d, out of range [0,%d) with Degree(%d)=%d", v, i, w, n, v, d)
				}
				if w == v {
					t.Fatalf("Neighbor(%d,%d) = %d: self-loop on a simple graph", v, i, w)
				}
				if seen[w] {
					t.Fatalf("Neighbor(%d,*) lists %d twice", v, w)
				}
				seen[w] = true
			}
			for _, i := range []int{-1, d, d + 1, d + 1000} {
				if got := src.Neighbor(v, i); got != -1 {
					t.Fatalf("Neighbor(%d,%d) = %d with Degree(%d)=%d, want -1 for out-of-range index", v, i, got, v, d)
				}
			}
		}
	})
	t.Run("adjacency", func(t *testing.T) {
		src := open(t)
		defer closeConformance(t, src)
		n := src.N()
		sample := conformanceSample(n)
		for _, v := range sample {
			if n > 0 {
				if got := src.Adjacency(v, v); got != -1 {
					t.Fatalf("Adjacency(%d,%d) = %d, want -1 (no self-loops)", v, v, got)
				}
			}
			d := src.Degree(v)
			neighbors := make(map[int]bool, d)
			for i := 0; i < d; i++ {
				w := src.Neighbor(v, i)
				neighbors[w] = true
				if got := src.Adjacency(v, w); got != i {
					t.Fatalf("Adjacency(%d,%d) = %d, want %d (w is the %d-th neighbor of v)", v, w, got, i, i)
				}
				j := src.Adjacency(w, v)
				if j < 0 {
					t.Fatalf("Adjacency(%d,%d) = %d: edge (%d,%d) exists but is not symmetric", w, v, j, v, w)
				}
				if got := src.Neighbor(w, j); got != v {
					t.Fatalf("Neighbor(%d,%d) = %d, want %d (Adjacency(%d,%d) said index %d)", w, j, got, v, w, v, j)
				}
			}
			for _, u := range sample {
				if u != v && !neighbors[u] {
					if got := src.Adjacency(v, u); got != -1 {
						t.Fatalf("Adjacency(%d,%d) = %d, want -1 (%d is not among %d's %d neighbors)", v, u, got, u, v, d)
					}
				}
			}
		}
	})
	// The subtest keeps the name it had when it checked mixed-op probe
	// batches, so its test IDs stay comparable; a row is now the batched
	// unit.
	t.Run("batch", func(t *testing.T) {
		src := open(t)
		defer closeConformance(t, src)
		rf, ok := RowFetcherOf(src)
		if !ok {
			t.Skip("backend has no row capability")
		}
		sample := conformanceSample(src.N())
		got, err := rf.FetchRows(sample)
		if err != nil {
			t.Fatalf("FetchRows(%d rows): %v", len(sample), err)
		}
		if want := assembledRows(src, sample); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("FetchRows answered\n got %v\nwant the scalar rows %v", got, want)
		}
		if rows, err := rf.FetchRows(nil); err != nil || len(rows) != 0 {
			t.Fatalf("empty request: got %v, %v; want no rows, no error", rows, err)
		}
	})
	t.Run("determinism", func(t *testing.T) {
		src := open(t)
		defer closeConformance(t, src)
		sample := conformanceSample(src.N())
		first := conformanceSnapshot(src, sample)
		for pass := 0; pass < 2; pass++ {
			if got := conformanceSnapshot(src, sample); got != first {
				t.Fatalf("pass %d answered differently:\n got %s\nwant %s", pass+1, got, first)
			}
		}
	})
	t.Run("close", func(t *testing.T) {
		src := open(t)
		c, ok := src.(Closer)
		if !ok {
			t.Skip("backend holds no external resources")
		}
		if err := c.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("second Close: %v (Close must be idempotent)", err)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		src := open(t)
		defer closeConformance(t, src)
		sample := conformanceSample(src.N())
		if len(sample) == 0 {
			t.Skip("empty source")
		}
		type cell struct{ deg, first, adj int }
		want := make([]cell, len(sample))
		for i, v := range sample {
			want[i] = cell{deg: src.Degree(v), first: src.Neighbor(v, 0)}
			if want[i].first >= 0 {
				want[i].adj = src.Adjacency(want[i].first, v)
			}
		}
		// With the op, each worker also asks v's row for the whole sample
		// (a long list) and for its first three (a short one).
		each, _ := src.(interface {
			AdjacencyEach(u int, vs, idx []int, first bool) int
		})
		var eachWant [][]int // eachWant[i][k] = Adjacency(sample[i], sample[k])
		if each != nil {
			for _, u := range sample {
				row := make([]int, len(sample))
				for k, v := range sample {
					row[k] = src.Adjacency(u, v)
				}
				eachWant = append(eachWant, row)
			}
		}
		const workers = 8
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				prg := rnd.NewPRG(rnd.Seed(1000 + w))
				for it := 0; it < 150; it++ {
					i := prg.Intn(len(sample))
					v := sample[i]
					if d := src.Degree(v); d != want[i].deg {
						errs[w] = fmt.Errorf("worker %d: Degree(%d) = %d, want %d", w, v, d, want[i].deg)
						return
					}
					if first := src.Neighbor(v, 0); first != want[i].first {
						errs[w] = fmt.Errorf("worker %d: Neighbor(%d,0) = %d, want %d", w, v, first, want[i].first)
						return
					}
					if want[i].first >= 0 {
						if adj := src.Adjacency(want[i].first, v); adj != want[i].adj {
							errs[w] = fmt.Errorf("worker %d: Adjacency(%d,%d) = %d, want %d", w, want[i].first, v, adj, want[i].adj)
							return
						}
					}
					if each != nil {
						vs := sample[:min(len(sample), 3+it%2*len(sample))]
						idx := make([]int, len(vs))
						if n := each.AdjacencyEach(v, vs, idx, false); n != len(vs) || !slices.Equal(idx, eachWant[i][:len(vs)]) {
							errs[w] = fmt.Errorf("worker %d: AdjacencyEach(%d, %v) = %v (%d answered), want %v", w, v, vs, idx, n, eachWant[i][:len(vs)])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FaultInjector controls the failure modes of a fault-injectable fleet
// for TestConformanceFaults: harnesses wrap each shard's transport (an
// httptest middleware, typically) so the suite can kill, hang and heal
// replicas at will.
type FaultInjector interface {
	// Shards returns the replica count.
	Shards() int
	// Fail makes shard i answer every request with a 500 until healed.
	Fail(i int)
	// Hang makes shard i delay every data-plane answer by d until healed.
	Hang(i int, d time.Duration)
	// Heal restores shard i to normal service.
	Heal(i int)
}

// ByzantineInjector extends FaultInjector with corruption: replicas that
// answer instead of failing, wrongly. Factories whose fleets verify
// attestations (attested shards, pinned remotes) implement it to inherit
// the trust-plane contract cases of TestConformanceFaults; the suite
// skips those cases otherwise.
type ByzantineInjector interface {
	FaultInjector
	// Lie makes shard i answer data-plane probes with plausible but wrong
	// values — vertex count, degrees, commitment and row proofs stay
	// honest — until healed. Byzantine, not broken: nothing errors.
	Lie(i int)
	// Truncate makes shard i cut its data-plane response bodies short
	// (malformed wire payloads) until healed.
	Truncate(i int)
}

// FaultFactory opens a fresh fault-injectable source — a Sharded over at
// least two replicas, configured with a fast failure threshold, fast
// revival and a hedge delay well below the hang used by the suite — plus
// the injector controlling its shards. Cleanup hangs on t.
type FaultFactory func(t testing.TB) (Source, FaultInjector)

// faultDeadline bounds the polls for health-state transitions; factories
// configure revival well below it.
const faultDeadline = 10 * time.Second

// TestConformanceFaults runs the failure-mode contract suite against a
// fault-injectable sharded backend:
//
//   - failover: with one replica answering 500s, every probe (raced
//     across goroutines — run under -race) still answers exactly the
//     healthy fleet's answers, the dead replica is reported dead and
//     failovers are counted; healing the replica revives it and routing
//     returns to normal. The sample's rows are also fetched (FetchRows)
//     on a fresh fleet whose replica 0 fails: healthy rows, counted
//     failovers.
//   - hedge: with one replica hanging past the hedge delay, probes answer
//     (from the other replica) long before the hang expires and hedges
//     are counted; the hanging replica is never marked dead — slow is not
//     down.
//   - alldead: with every replica failing, probes fail with a typed
//     *ProbeError naming the no-live-replica condition instead of
//     hanging or succeeding; healing the fleet restores service.
//
// Fleets whose injector implements ByzantineInjector additionally face
// the trust-plane cases (skipped otherwise):
//
//   - byzantine-lie: one replica answers wrong values under honest
//     proofs. Every answer must stay byte-identical to the healthy
//     fleet's, attestation failures must be counted, and the liar must
//     be distrusted — stickily: healing it must not resurrect it, since
//     a health-plane ping cannot prove the data plane stopped lying. The
//     sample's rows are also fetched on a fresh fleet whose replica 0
//     lies: healthy rows, counted attestation failures.
//   - byzantine-truncate: one replica cuts its response bodies short.
//     Malformed payloads are failures, not lies: answers stay identical
//     via failover, the replica goes dead and healing revives it.
//   - flapping: one replica oscillates between dead and healthy while
//     probers race; answers must stay identical throughout.
func TestConformanceFaults(t *testing.T, open FaultFactory) {
	t.Run("failover", func(t *testing.T) {
		src, inj := open(t)
		defer closeConformance(t, src)
		if inj.Shards() < 2 {
			t.Fatal("fault suite needs at least two replicas")
		}
		sample := conformanceSample(src.N())
		if len(sample) == 0 {
			t.Skip("empty source")
		}
		want := conformanceSnapshot(src, sample)
		inj.Fail(0)
		// Racing probers must keep seeing the healthy answers throughout
		// the detection window and after the shard is marked dead.
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for w := range errs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for pass := 0; pass < 3; pass++ {
					if got := conformanceSnapshot(src, sample); got != want {
						errs[w] = fmt.Errorf("worker %d pass %d: answers changed under failover:\n got %s\nwant %s", w, pass, got, want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if fo, ok := src.(FailoverCounter); !ok {
			t.Fatal("fault-injectable source lacks the FailoverCounter capability")
		} else if fo.Failovers() == 0 {
			t.Fatal("probes were re-routed off a failing replica but Failovers() == 0")
		}
		waitShardState(t, src, 0, ShardDead, "after consecutive failures")
		inj.Heal(0)
		waitShardState(t, src, 0, ShardLive, "after healing")
		if got := conformanceSnapshot(src, sample); got != want {
			t.Fatalf("answers changed after revival:\n got %s\nwant %s", got, want)
		}
		rowsUnderFault(t, open, func(inj FaultInjector) { inj.Fail(0) },
			func(src Source) uint64 { return src.(FailoverCounter).Failovers() }, "Failovers()")
	})
	t.Run("hedge", func(t *testing.T) {
		src, inj := open(t)
		defer closeConformance(t, src)
		sample := conformanceSample(src.N())
		if len(sample) == 0 {
			t.Skip("empty source")
		}
		want := make([]int, len(sample))
		for i, v := range sample {
			want[i] = src.Degree(v)
		}
		const hang = 3 * time.Second
		inj.Hang(0, hang)
		start := time.Now()
		for i, v := range sample {
			if got := src.Degree(v); got != want[i] {
				t.Fatalf("Degree(%d) = %d under a hanging replica, want %d", v, got, want[i])
			}
		}
		// Every probe owned by the hanging replica must have been answered
		// by the hedge, not the hang: well under one hang for the whole
		// sweep.
		if elapsed := time.Since(start); elapsed > hang {
			t.Fatalf("sweep under a hanging replica took %v; hedging is not kicking in", elapsed)
		}
		fo, ok := src.(FailoverCounter)
		if !ok {
			t.Fatal("fault-injectable source lacks the FailoverCounter capability")
		}
		if fo.Hedges() == 0 {
			t.Fatal("a replica hung past the hedge delay but Hedges() == 0")
		}
		if got := fo.Failovers(); got != 0 {
			t.Fatalf("Failovers() = %d under a slow-but-healthy replica; hedge wins must not read as failovers (slow is not down)", got)
		}
		if health, ok := HealthOf(src); !ok {
			t.Fatal("fault-injectable source lacks the HealthReporter capability")
		} else if health[0].State != ShardLive {
			t.Fatalf("hanging replica reports %q; slow must not read as down", health[0].State)
		}
		inj.Heal(0)
	})
	t.Run("hedgerace", func(t *testing.T) {
		// Pins the hedge accounting contract: every logical probe costs
		// exactly one primary round trip plus one per hedge fired plus at
		// most one per failover re-route — a hedge that fires in the same
		// instant the primary answers must not buy a duplicate trip, and a
		// shard dying mid-race must not double-count the contenders.
		src, inj := open(t)
		defer closeConformance(t, src)
		if inj.Shards() < 2 {
			t.Fatal("fault suite needs at least two replicas")
		}
		sample := conformanceSample(src.N())
		if len(sample) == 0 {
			t.Skip("empty source")
		}
		rt, ok := src.(RoundTripCounter)
		if !ok {
			t.Fatal("fault-injectable source lacks the RoundTripCounter capability")
		}
		fo, ok := src.(FailoverCounter)
		if !ok {
			t.Fatal("fault-injectable source lacks the FailoverCounter capability")
		}
		want := make([]int, len(sample))
		for i, v := range sample {
			want[i] = src.Degree(v)
		}

		// Serial baseline on the healthy fleet.
		trips0, hedges0, fail0 := rt.RoundTrips(), fo.Hedges(), fo.Failovers()
		for _, v := range sample {
			src.Degree(v)
		}
		probes := uint64(len(sample))
		hedged := fo.Hedges() - hedges0
		if got := rt.RoundTrips() - trips0; got != probes+hedged {
			t.Fatalf("serial sweep: %d trips for %d probes and %d hedges; want trips == probes + hedges", got, probes, hedged)
		}
		if got := fo.Failovers() - fail0; got != 0 {
			t.Fatalf("serial sweep on a healthy fleet counted %d failovers", got)
		}

		// Hang one replica past the hedge delay and race probers: hedges
		// now fire concurrently and the identity must survive the race.
		const hang = 3 * time.Second
		inj.Hang(0, hang)
		trips0, hedges0, fail0 = rt.RoundTrips(), fo.Hedges(), fo.Failovers()
		const workers = 4
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := range errs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i, v := range sample {
					if got := src.Degree(v); got != want[i] {
						errs[w] = fmt.Errorf("worker %d: Degree(%d) = %d under hedging, want %d", w, v, got, want[i])
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		probes = uint64(workers * len(sample))
		hedged = fo.Hedges() - hedges0
		if hedged == 0 {
			t.Fatal("a replica hung past the hedge delay but Hedges() never advanced")
		}
		if got := rt.RoundTrips() - trips0; got != probes+hedged {
			t.Fatalf("raced sweep: %d trips for %d probes and %d hedges; want trips == probes + hedges", got, probes, hedged)
		}
		if got := fo.Failovers() - fail0; got != 0 {
			t.Fatalf("Failovers() advanced by %d under a slow-but-healthy replica; hedge wins must not read as failovers", got)
		}

		// Kill the hanging replica mid-race: in-flight hedges race the 500s
		// and the dead-marking. Answers must stay correct and every trip
		// must still be attributable — one per probe, one per hedge, at
		// most one extra attempt per failover.
		trips0, hedges0, fail0 = rt.RoundTrips(), fo.Hedges(), fo.Failovers()
		killed := make(chan struct{})
		for w := range errs {
			errs[w] = nil
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for pass := 0; pass < 3; pass++ {
					if w == 0 && pass == 1 {
						inj.Fail(0)
						close(killed)
					}
					for i, v := range sample {
						if got := src.Degree(v); got != want[i] {
							errs[w] = fmt.Errorf("worker %d pass %d: Degree(%d) = %d racing a shard kill, want %d", w, pass, v, got, want[i])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		<-killed
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		probes = uint64(3 * workers * len(sample))
		hedged = fo.Hedges() - hedges0
		failovers := fo.Failovers() - fail0
		if got := rt.RoundTrips() - trips0; got < probes || got > probes+hedged+failovers {
			t.Fatalf("kill race: %d trips for %d probes, %d hedges, %d failovers; want probes <= trips <= probes + hedges + failovers", got, probes, hedged, failovers)
		}

		// Heal, wait for revival and re-run the serial baseline: the
		// counters must return exactly to the healthy identity — no leaked
		// loser context may keep bumping them after its race settled.
		inj.Heal(0)
		waitShardState(t, src, 0, ShardLive, "after healing the killed replica")
		trips0, hedges0, fail0 = rt.RoundTrips(), fo.Hedges(), fo.Failovers()
		for _, v := range sample {
			src.Degree(v)
		}
		probes = uint64(len(sample))
		hedged = fo.Hedges() - hedges0
		if got := rt.RoundTrips() - trips0; got != probes+hedged {
			t.Fatalf("post-heal sweep: %d trips for %d probes and %d hedges; want trips == probes + hedges", got, probes, hedged)
		}
		if got := fo.Failovers() - fail0; got != 0 {
			t.Fatalf("post-heal sweep counted %d failovers on a healthy fleet", got)
		}

		// Close must not wait out a hanging loser: hang the replica again,
		// leave losers in flight and check Close returns promptly.
		inj.Hang(0, hang)
		for _, v := range sample {
			src.Degree(v)
		}
		start := time.Now()
		closeConformance(t, src)
		if elapsed := time.Since(start); elapsed > hang/2 {
			t.Fatalf("Close took %v with hedge losers still in flight; loser contexts must not outlive the race", elapsed)
		}
	})
	t.Run("alldead", func(t *testing.T) {
		src, inj := open(t)
		defer closeConformance(t, src)
		sample := conformanceSample(src.N())
		if len(sample) == 0 {
			t.Skip("empty source")
		}
		healthy := src.Degree(sample[0])
		for i := 0; i < inj.Shards(); i++ {
			inj.Fail(i)
		}
		pe := mustProbeError(t, func() {
			for range sample {
				src.Degree(sample[0])
			}
		})
		if !strings.Contains(pe.Error(), "no live replica") {
			t.Fatalf("all-replicas-dead error %q does not name the no-live-replica condition", pe.Error())
		}
		for i := 0; i < inj.Shards(); i++ {
			inj.Heal(i)
		}
		deadline := time.Now().Add(faultDeadline)
		for {
			if ans, ok := tryProbe(src, sample[0]); ok {
				if ans != healthy {
					t.Fatalf("Degree(%d) = %d after fleet recovery, want %d", sample[0], ans, healthy)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("fleet never recovered after healing every replica")
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
	t.Run("byzantine-lie", func(t *testing.T) {
		src, inj := open(t)
		defer closeConformance(t, src)
		binj, ok := inj.(ByzantineInjector)
		if !ok {
			t.Skip("factory has no Byzantine injection")
		}
		ac, ok := src.(AttestCounter)
		if !ok {
			t.Fatal("a Byzantine-injectable fleet must have the AttestCounter capability")
		}
		sample := conformanceSample(src.N())
		if len(sample) == 0 {
			t.Skip("empty source")
		}
		want := conformanceSnapshot(src, sample)
		binj.Lie(0)
		// Racing probers must keep seeing the healthy fleet's answers,
		// byte-identical, through detection and after distrust: every lie
		// is discarded and re-routed, never served.
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for w := range errs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for pass := 0; pass < 3; pass++ {
					if got := conformanceSnapshot(src, sample); got != want {
						errs[w] = fmt.Errorf("worker %d pass %d: answers changed under a lying replica:\n got %s\nwant %s", w, pass, got, want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if ac.AttestFailures() == 0 {
			t.Fatal("a replica lied under honest proofs but AttestFailures() == 0")
		}
		waitShardState(t, src, 0, ShardDistrusted, "after lying answers")
		// Distrust is sticky: heal the replica (it really is honest again)
		// and give the reviver several ping intervals — a liar must stay
		// routed around, because a health-plane ping cannot prove the data
		// plane stopped lying.
		binj.Heal(0)
		time.Sleep(150 * time.Millisecond)
		if health, ok := HealthOf(src); !ok {
			t.Fatal("fleet lacks the HealthReporter capability")
		} else if health[0].State != ShardDistrusted {
			t.Fatalf("healed liar reports %q; distrust must be sticky, not revivable", health[0].State)
		}
		if got := conformanceSnapshot(src, sample); got != want {
			t.Fatalf("answers changed after the liar healed:\n got %s\nwant %s", got, want)
		}
		rowsUnderFault(t, open, func(inj FaultInjector) { inj.(ByzantineInjector).Lie(0) },
			func(src Source) uint64 { return src.(AttestCounter).AttestFailures() }, "AttestFailures()")
	})
	t.Run("byzantine-truncate", func(t *testing.T) {
		src, inj := open(t)
		defer closeConformance(t, src)
		binj, ok := inj.(ByzantineInjector)
		if !ok {
			t.Skip("factory has no Byzantine injection")
		}
		sample := conformanceSample(src.N())
		if len(sample) == 0 {
			t.Skip("empty source")
		}
		want := conformanceSnapshot(src, sample)
		binj.Truncate(0)
		for pass := 0; pass < 3; pass++ {
			if got := conformanceSnapshot(src, sample); got != want {
				t.Fatalf("pass %d: answers changed under truncated responses:\n got %s\nwant %s", pass, got, want)
			}
		}
		if fo, ok := src.(FailoverCounter); !ok {
			t.Fatal("fleet lacks the FailoverCounter capability")
		} else if fo.Failovers() == 0 {
			t.Fatal("a replica served malformed payloads but Failovers() == 0")
		}
		// Malformed bytes are a broken replica, not a proven liar: it goes
		// dead like any failure and healing revives it. Truncation spares
		// the health plane, so the reviver's ping can bring the replica
		// back before a poll sees it dead; keep routing data to it.
		probeUntilShardState(t, src, sample, want, 0, ShardDead, "after truncated responses")
		binj.Heal(0)
		waitShardState(t, src, 0, ShardLive, "after healing the truncating replica")
		if got := conformanceSnapshot(src, sample); got != want {
			t.Fatalf("answers changed after revival:\n got %s\nwant %s", got, want)
		}
	})
	t.Run("flapping", func(t *testing.T) {
		src, inj := open(t)
		defer closeConformance(t, src)
		if inj.Shards() < 2 {
			t.Fatal("fault suite needs at least two replicas")
		}
		sample := conformanceSample(src.N())
		if len(sample) == 0 {
			t.Skip("empty source")
		}
		want := conformanceSnapshot(src, sample)
		// One replica oscillates dead/healthy while probers race: every
		// transition window (detection, dead, revival probation) must keep
		// serving the healthy fleet's answers.
		stop := make(chan struct{})
		var flapper sync.WaitGroup
		flapper.Add(1)
		go func() {
			defer flapper.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				inj.Fail(0)
				time.Sleep(8 * time.Millisecond)
				inj.Heal(0)
				time.Sleep(8 * time.Millisecond)
			}
		}()
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for w := range errs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for pass := 0; pass < 6; pass++ {
					if got := conformanceSnapshot(src, sample); got != want {
						errs[w] = fmt.Errorf("worker %d pass %d: answers changed under a flapping replica:\n got %s\nwant %s", w, pass, got, want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		flapper.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		inj.Heal(0)
		waitShardState(t, src, 0, ShardLive, "after the flapping stopped")
		if got := conformanceSnapshot(src, sample); got != want {
			t.Fatalf("answers changed after the flapping stopped:\n got %s\nwant %s", got, want)
		}
	})
}

// waitShardState polls the fleet's health until shard i reaches the
// wanted state or the deadline passes.
func waitShardState(t *testing.T, src Source, i int, state, context string) {
	t.Helper()
	pollShardState(t, src, i, state, context, func() { time.Sleep(5 * time.Millisecond) })
}

// probeUntilShardState is waitShardState for faults that only the data
// plane sees: between polls it probes the sample, checking every answer
// against want, so a replica that passes health pings but fails probes
// fails again whenever the reviver brings it back.
func probeUntilShardState(t *testing.T, src Source, sample []int, want string, i int, state, context string) {
	t.Helper()
	pollShardState(t, src, i, state, context, func() {
		if got := conformanceSnapshot(src, sample); got != want {
			t.Fatalf("answers changed while waiting for shard %d to be %q %s:\n got %s\nwant %s", i, state, context, got, want)
		}
	})
}

// pollShardState runs between each poll of the fleet's health until
// shard i reaches the wanted state or the deadline passes.
func pollShardState(t *testing.T, src Source, i int, state, context string, between func()) {
	t.Helper()
	deadline := time.Now().Add(faultDeadline)
	for {
		health, ok := HealthOf(src)
		if !ok {
			t.Fatal("source lacks the HealthReporter capability")
		}
		if health[i].State == state {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d stuck in state %q, want %q %s", i, health[i].State, state, context)
		}
		between()
	}
}

// mustProbeError runs fn, which must panic with a *ProbeError before
// completing; lone pre-dead-marking successes are tolerated by fn's
// construction (it probes repeatedly).
func mustProbeError(t *testing.T, fn func()) (pe *ProbeError) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("probing an all-dead fleet unexpectedly succeeded")
		}
		var ok bool
		if pe, ok = r.(*ProbeError); !ok {
			t.Fatalf("panic payload %T, want *ProbeError", r)
		}
	}()
	fn()
	return nil
}

// tryProbe probes Degree(v) and reports success, recovering the
// no-live-replica panic while the fleet is still reviving.
func tryProbe(src Source, v int) (ans int, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isProbe := r.(*ProbeError); !isProbe {
				panic(r)
			}
			ans, ok = 0, false
		}
	}()
	return src.Degree(v), true
}

// rowsUnderFault covers a fleet's rowfull entry under one fault: on a
// fresh fleet, inject breaks replica 0,
// and one FetchRows over the sample must return the healthy fleet's rows
// while count (the fault's counter, named by what) advances. The fleet is
// fresh so replica 0 still owns its vertices and its group fails
// mid-fetch, exercising the re-route rounds.
func rowsUnderFault(t *testing.T, open FaultFactory, inject func(FaultInjector), count func(Source) uint64, what string) {
	t.Helper()
	src, inj := open(t)
	defer closeConformance(t, src)
	rf, ok := RowFetcherOf(src)
	if !ok {
		t.Fatal("fault-injectable source lacks the RowFetcher capability")
	}
	sample := conformanceSample(src.N())
	want := assembledRows(src, sample)
	inject(inj)
	before := count(src)
	got, err := rf.FetchRows(sample)
	if err != nil {
		t.Fatalf("FetchRows under a faulty replica: %v", err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("FetchRows under a faulty replica:\n got %v\nwant %v", got, want)
	}
	if count(src) == before {
		t.Fatalf("FetchRows routed around a faulty replica but %s did not advance", what)
	}
}

// conformanceSample picks the probed vertices: every vertex when small,
// a deterministic spread otherwise.
func conformanceSample(n int) []int {
	if n <= 0 {
		return nil
	}
	if n <= maxConformanceSample {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, maxConformanceSample)
	stride := n / maxConformanceSample
	for i := range out {
		out[i] = i * stride
	}
	return out
}

// assembledRows reads the rows of vs through scalar Degree/Neighbor
// probes: what a RowFetcher must answer.
func assembledRows(src Source, vs []int) [][]int {
	rows := make([][]int, len(vs))
	for i, v := range vs {
		rows[i] = make([]int, src.Degree(v))
		for j := range rows[i] {
			rows[i][j] = src.Neighbor(v, j)
		}
	}
	return rows
}

// conformanceSnapshot renders the sampled probe answers into one
// comparable string.
func conformanceSnapshot(src Source, sample []int) string {
	s := ""
	for _, v := range sample {
		d := src.Degree(v)
		s += fmt.Sprintf("%d:%d[", v, d)
		for i := 0; i < d; i++ {
			w := src.Neighbor(v, i)
			s += fmt.Sprintf("%d@%d ", w, src.Adjacency(v, w))
		}
		s += "] "
	}
	return s
}

// closeConformance closes the backend under test when it can be closed,
// failing the test on error.
func closeConformance(t testing.TB, src Source) {
	if c, ok := src.(Closer); ok {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
}
