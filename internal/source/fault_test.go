package source

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lca/internal/attest"
)

// faultShard is an httptest middleware that injects failures into one
// probe shard: 500s on everything (dead replica), a data-plane hang
// (slow replica; /probe/meta stays fast so the health plane reads the
// shard as alive — slow is not down), or truncated data-plane response
// bodies (malformed wire payloads). Cancelled requests (hedged losers)
// unblock immediately.
type faultShard struct {
	mu       sync.Mutex
	failing  bool
	truncate bool
	hang     time.Duration
	inner    http.Handler
	lie      *liarBacking // nil on fleets without Byzantine injection
}

func (f *faultShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	failing, truncate, hang := f.failing, f.truncate, f.hang
	f.mu.Unlock()
	if failing {
		http.Error(w, "injected shard failure", http.StatusInternalServerError)
		return
	}
	dataPlane := strings.HasPrefix(r.URL.Path, "/probe") && r.URL.Path != "/probe/meta"
	if hang > 0 && dataPlane {
		select {
		case <-time.After(hang):
		case <-r.Context().Done():
			return
		}
	}
	if truncate && dataPlane {
		w = &truncatedWriter{ResponseWriter: w, room: 3}
	}
	f.inner.ServeHTTP(w, r)
}

// truncatedWriter forwards the first few body bytes and swallows the
// rest: the client sees a 200 with a malformed payload.
type truncatedWriter struct {
	http.ResponseWriter
	room int
}

func (tw *truncatedWriter) Write(b []byte) (int, error) {
	if tw.room <= 0 {
		return len(b), nil
	}
	cut := b
	if len(cut) > tw.room {
		cut = cut[:tw.room]
	}
	tw.room -= len(cut)
	if _, err := tw.ResponseWriter.Write(cut); err != nil {
		return 0, err
	}
	return len(b), nil
}

// liarBacking wraps one replica's attested backing source: with the lie
// switched on, every neighbor answer is rotated one vertex forward while
// the vertex count, degrees, commitment and row proofs stay honest —
// Byzantine, not broken. The attestation cross-check (honest proof,
// lying answer) is exactly what catches it.
type liarBacking struct {
	att   *Attested
	lying atomic.Bool
}

var _ Attestor = (*liarBacking)(nil)

func (l *liarBacking) N() int { return l.att.N() }

func (l *liarBacking) Degree(v int) int { return l.att.Degree(v) }

func (l *liarBacking) Neighbor(v, i int) int {
	w := l.att.Neighbor(v, i)
	if l.lying.Load() && w >= 0 {
		return (w + 1) % l.att.N()
	}
	return w
}

func (l *liarBacking) Adjacency(u, v int) int { return l.att.Adjacency(u, v) }

func (l *liarBacking) Commitment() attest.Root { return l.att.Commitment() }

func (l *liarBacking) ProveRow(v int) ([]int, []string) { return l.att.ProveRow(v) }

// faultFleet implements FaultInjector over the shards' middlewares.
type faultFleet struct{ shards []*faultShard }

func (f *faultFleet) Shards() int { return len(f.shards) }

func (f *faultFleet) Fail(i int) {
	f.shards[i].mu.Lock()
	f.shards[i].failing = true
	f.shards[i].mu.Unlock()
}

func (f *faultFleet) Hang(i int, d time.Duration) {
	f.shards[i].mu.Lock()
	f.shards[i].hang = d
	f.shards[i].mu.Unlock()
}

func (f *faultFleet) Heal(i int) {
	f.shards[i].mu.Lock()
	f.shards[i].failing = false
	f.shards[i].truncate = false
	f.shards[i].hang = 0
	f.shards[i].mu.Unlock()
	if f.shards[i].lie != nil {
		f.shards[i].lie.lying.Store(false)
	}
}

// byzantineFleet adds the corruption modes over attested shards; only
// fleets built by byzantineFleetFactory hand it out, so the conformance
// suite runs the trust-plane cases exactly where the remotes pin roots.
type byzantineFleet struct{ faultFleet }

func (f *byzantineFleet) Lie(i int) { f.shards[i].lie.lying.Store(true) }

func (f *byzantineFleet) Truncate(i int) {
	f.shards[i].mu.Lock()
	f.shards[i].truncate = true
	f.shards[i].mu.Unlock()
}

// faultFleetFactory opens a Sharded over `count` httptest replicas with
// fault-suite-friendly settings: no remote retries (failures surface
// immediately), a 25ms hedge, a 2-failure dead threshold and fast
// revival.
func faultFleetFactory(count int) FaultFactory {
	return func(t testing.TB) (Source, FaultInjector) {
		fleet := &faultFleet{}
		var shards []Source
		for i := 0; i < count; i++ {
			fs := &faultShard{inner: NewProbeHandler(Ring(60))}
			ts := httptest.NewServer(fs)
			t.Cleanup(ts.Close)
			r, err := OpenRemote(ts.URL, WithRetries(0), WithRetryBackoff(time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			fleet.shards = append(fleet.shards, fs)
			shards = append(shards, r)
		}
		s, err := NewSharded(shards,
			WithHedge(25*time.Millisecond),
			WithFailureThreshold(2),
			WithRevival(10*time.Millisecond, 100*time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		return s, fleet
	}
}

// byzantineFleetFactory opens a Sharded over `count` attested httptest
// replicas whose remotes pin the shared commitment root — the fleet
// shape on which lying answers become ErrAttestation. Each replica's
// backing can be switched into lying mode; the middleware adds the
// truncation mode.
func byzantineFleetFactory(count int) FaultFactory {
	return func(t testing.TB) (Source, FaultInjector) {
		root := NewAttested(Ring(60)).Commitment()
		fleet := &byzantineFleet{}
		var shards []Source
		for i := 0; i < count; i++ {
			liar := &liarBacking{att: NewAttested(Ring(60))}
			fs := &faultShard{inner: NewProbeHandler(liar), lie: liar}
			ts := httptest.NewServer(fs)
			t.Cleanup(ts.Close)
			r, err := OpenRemote(ts.URL, WithRetries(0), WithRetryBackoff(time.Millisecond), WithCommitment(root))
			if err != nil {
				t.Fatal(err)
			}
			fleet.shards = append(fleet.shards, fs)
			shards = append(shards, r)
		}
		s, err := NewSharded(shards,
			WithHedge(25*time.Millisecond),
			WithFailureThreshold(2),
			WithRevival(10*time.Millisecond, 100*time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		return s, fleet
	}
}

// TestConformanceFaultsSharded runs the failure-mode contract suite over
// httptest-backed sharded fleets — the acceptance shape of the failover
// layer, raced under -race by the suite itself. The attested fleet's
// remotes pin the shared commitment, adding the Byzantine cases on top.
func TestConformanceFaultsSharded(t *testing.T) {
	for _, c := range []struct {
		name    string
		factory FaultFactory
	}{
		{"remote-x2", faultFleetFactory(2)},
		{"remote-x3", faultFleetFactory(3)},
		{"remote-x2-attested", byzantineFleetFactory(2)},
	} {
		t.Run(c.name, func(t *testing.T) { TestConformanceFaults(t, c.factory) })
	}
}

// TestShardedHedgeSpec drives the hedge= spec item end to end and pins
// its error cases.
func TestShardedHedgeSpec(t *testing.T) {
	a, b := newShard(t, Ring(25)), newShard(t, Ring(25))
	src, err := Parse("sharded:remote:"+a.URL+";remote:"+b.URL+";hedge=15ms", 7)
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := src.(*Sharded)
	if !ok {
		t.Fatalf("sharded spec yielded %T", src)
	}
	if sh.hedge != 15*time.Millisecond {
		t.Fatalf("hedge = %v, want 15ms", sh.hedge)
	}
	if sh.Degree(3) != 2 {
		t.Fatal("hedged fleet does not answer")
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	for spec, token := range map[string]string{
		"sharded:ring:n=5;ring:n=5;hedge=xyz": "hedge",
		"sharded:ring:n=5;ring:n=5;hedge=0s":  "hedge",
		"sharded:ring:n=5;ring:n=5;hedge=2h":  "hedge",
	} {
		if _, err := Parse(spec, 7); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", spec)
		} else if !strings.Contains(err.Error(), token) {
			t.Errorf("Parse(%q) error %q does not name %q", spec, err, token)
		}
	}
}

// TestScopedTripAttribution pins the Scoper contract: two views of
// one shared network source each count exactly their own round trips,
// interleaved traffic included — the per-request attribution serve relies
// on.
func TestScopedTripAttribution(t *testing.T) {
	remote := openRemoteShard(t, Ring(50))
	ts, ok := remote.(Scoper)
	if !ok {
		t.Fatal("remote lacks the Scoper capability")
	}
	viewA, viewB := ts.Scope(nil), ts.Scope(nil)
	for v := 0; v < 6; v++ {
		viewA.Degree(v)
		if v%2 == 0 {
			viewB.Neighbor(v, 0)
		}
	}
	if got := viewA.(RoundTripCounter).RoundTrips(); got != 6 {
		t.Fatalf("view A counted %d trips, want its own 6", got)
	}
	if got := viewB.(RoundTripCounter).RoundTrips(); got != 3 {
		t.Fatalf("view B counted %d trips, want its own 3", got)
	}
	shared := remote.(RoundTripCounter).RoundTrips()
	if shared < 9 {
		t.Fatalf("shared counter %d lost scoped traffic (want >= 9)", shared)
	}

	a, b := openRemoteShard(t, Ring(50)), openRemoteShard(t, Ring(50))
	fleet, err := NewSharded([]Source{a, b})
	if err != nil {
		t.Fatal(err)
	}
	view := fleet.(Scoper).Scope(nil)
	for v := 0; v < 8; v++ {
		view.Degree(v)
	}
	if got := view.(RoundTripCounter).RoundTrips(); got != 8 {
		t.Fatalf("sharded view counted %d trips, want its own 8", got)
	}
	if _, ok := view.(FailoverCounter); !ok {
		t.Fatal("sharded view lacks the FailoverCounter capability")
	}
	// The view shares the fleet's capability set.
	if _, ok := EdgeCounterOf(view); !ok {
		t.Fatal("sharded view lost the EdgeCounter capability")
	}
	if rf, ok := RowFetcherOf(view); !ok {
		t.Fatal("sharded view lost the row capability")
	} else if _, err := rf.FetchRows([]int{1}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMetaReportsHealth: a shard fronting a fleet surfaces the
// fleet's per-replica health on /probe/meta.
func TestShardedMetaReportsHealth(t *testing.T) {
	a, b := openRemoteShard(t, Ring(30)), openRemoteShard(t, Ring(30))
	fleet, err := NewSharded([]Source{a, b})
	if err != nil {
		t.Fatal(err)
	}
	meta := metaOf(fleet)
	if len(meta.Shards) != 2 {
		t.Fatalf("meta reports %d shards, want 2", len(meta.Shards))
	}
	for i, h := range meta.Shards {
		if h.State != ShardLive {
			t.Fatalf("shard %d reports %q at rest, want %q", i, h.State, ShardLive)
		}
		if h.Shard == "" {
			t.Fatalf("shard %d has no label", i)
		}
	}
}
