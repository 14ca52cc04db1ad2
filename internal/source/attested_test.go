package source

// Unit tests of the trust plane's client side: pinned remotes verifying
// row proofs, the typed ErrAttestation surface, fleet distrust and
// cache hygiene under a lying replica, and the cross-replica spot-check
// auditor. The end-to-end Byzantine contract lives in
// TestConformanceFaults (fault_test.go); these pin the layer-by-layer
// mechanics.

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// pinnedRemote opens a Remote over ts pinned to root, with retries off so
// every failure surfaces immediately.
func pinnedRemote(t testing.TB, ts *httptest.Server, root string) Source {
	t.Helper()
	src, err := Parse("remote:"+ts.URL+"#root="+root, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if c, ok := src.(Closer); ok {
			_ = c.Close()
		}
	})
	return src
}

func TestAttestedCommitmentDeterministic(t *testing.T) {
	a, b := NewAttested(Ring(40)), NewAttested(Ring(40))
	if a.Commitment() != b.Commitment() {
		t.Fatal("equal graphs committed to different roots")
	}
	if c := NewAttested(Ring(41)); c.Commitment() == a.Commitment() {
		t.Fatal("different graphs committed to the same root")
	}
	if row, proof := a.ProveRow(-1); row != nil || proof != nil {
		t.Fatal("ProveRow out of range answered a proof")
	}
}

// TestRemotePinnedVerifies: a pinned remote over an honest attested
// shard answers exactly the source's answers, counts transported proof
// bytes and no failures — scalar and rowfull paths alike.
func TestRemotePinnedVerifies(t *testing.T) {
	att := NewAttested(Ring(40))
	ts := newShard(t, att)
	src := pinnedRemote(t, ts, att.Commitment().String())

	for v := 0; v < 10; v++ {
		if got, want := src.Degree(v), att.Degree(v); got != want {
			t.Fatalf("Degree(%d) = %d, want %d", v, got, want)
		}
		if got, want := src.Neighbor(v, 0), att.Neighbor(v, 0); got != want {
			t.Fatalf("Neighbor(%d,0) = %d, want %d", v, got, want)
		}
		if got, want := src.Adjacency(v, (v+1)%40), att.Adjacency(v, (v+1)%40); got != want {
			t.Fatalf("Adjacency(%d,%d) = %d, want %d", v, (v+1)%40, got, want)
		}
	}
	rf, _ := RowFetcherOf(src)
	rows, err := rf.FetchRows([]int{4, 5})
	if err != nil {
		t.Fatalf("rowfull over an honest attested shard: %v", err)
	}
	if want := assembledRows(att, []int{4, 5}); fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("rowfull answered %v, want %v", rows, want)
	}
	ac := src.(AttestCounter)
	if ac.AttestFailures() != 0 {
		t.Fatalf("honest shard produced %d attestation failures", ac.AttestFailures())
	}
	if ac.ProofBytes() == 0 {
		t.Fatal("verified probes transported no proof bytes")
	}
}

// TestRemotePinnedDetectsLie: honest proofs over lying answers must
// become a typed ErrAttestation — temporary (failover-eligible) and
// counted — on the scalar and rowfull paths.
func TestRemotePinnedDetectsLie(t *testing.T) {
	liar := &liarBacking{att: NewAttested(Ring(40))}
	liar.lying.Store(true)
	ts := newShard(t, liar)
	src := pinnedRemote(t, ts, liar.att.Commitment().String())

	pe := mustProbeError(t, func() { src.Neighbor(3, 0) })
	if !errors.Is(pe, ErrAttestation) {
		t.Fatalf("scalar lie surfaced as %v, want ErrAttestation", pe)
	}
	if !pe.Temporary() {
		t.Fatal("ErrAttestation must be temporary: the fleet layer re-routes it")
	}
	rf, _ := RowFetcherOf(src)
	if _, err := rf.FetchRows([]int{3}); !errors.Is(err, ErrAttestation) {
		t.Fatalf("rowfull lie surfaced as %v, want ErrAttestation", err)
	}
	if src.(AttestCounter).AttestFailures() == 0 {
		t.Fatal("detected lies were not counted")
	}
	// Degrees stay honest on this liar, and degree answers are covered by
	// the same proof row: they must still verify.
	if got := src.Degree(3); got != 2 {
		t.Fatalf("honest degree rejected: Degree(3) = %d", got)
	}
}

// TestRemoteRootFragment pins the #root= spec grammar: a pin that
// contradicts the shard's advertised commitment is rejected at open time
// — before a single probe is trusted — and a malformed pin is a parse
// error.
func TestRemoteRootFragment(t *testing.T) {
	att := NewAttested(Ring(40))
	ts := newShard(t, att)
	wrong := NewAttested(Ring(41)).Commitment().String()
	if _, err := Parse("remote:"+ts.URL+"#root="+wrong, 7); err == nil {
		t.Fatal("opening a shard under a contradicting pin succeeded")
	} else if !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("wrong-pin error %q does not name the pin", err)
	}
	for _, spec := range []string{
		"remote:" + ts.URL + "#root=nothex",
		"remote:" + ts.URL + "#root=abcd", // too short
		"remote:" + ts.URL + "#frag=1",
	} {
		if _, err := Parse(spec, 7); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", spec)
		}
	}
}

// TestShardedSpotCheck: the cross-replica auditor flags a divergent
// replica on a healthy-looking fleet and stays silent on an honest one.
// Unpinned remotes — the spot check is the deployable detection story
// when no commitment exists.
func TestShardedSpotCheck(t *testing.T) {
	honest := openRemoteShard(t, Ring(40))
	liar := &liarBacking{att: NewAttested(Ring(40))}
	liar.lying.Store(true)
	lts := newShard(t, liar)
	lying, err := OpenRemote(lts.URL, WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewSharded([]Source{honest, lying})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.(Closer).Close()
	sh := fleet.(*Sharded)
	found := sh.SpotCheck(16, 2019)
	if len(found) == 0 {
		t.Fatal("spot check over a lying replica found no disagreements")
	}
	for _, d := range found {
		if d.Replica != 1 {
			t.Fatalf("disagreement blames replica %d, want the liar (1): %+v", d.Replica, d)
		}
		if d.V < 0 || d.V >= 40 {
			t.Fatalf("disagreement names vertex %d outside the graph", d.V)
		}
	}

	h2 := openRemoteShard(t, Ring(40))
	h3 := openRemoteShard(t, Ring(40))
	clean, err := NewSharded([]Source{h2, h3})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.(Closer).Close()
	if got := clean.(*Sharded).SpotCheck(16, 2019); len(got) != 0 {
		t.Fatalf("spot check over an honest fleet reported %v", got)
	}
}

// TestShardedBatchByzantineCacheHygiene is the batch partial-failure
// regression: a batch of rows whose groups span an honest replica and a
// liar must answer every row correctly, and the liar must end up
// distrusted, so later reads serve the truth.
func TestShardedBatchByzantineCacheHygiene(t *testing.T) {
	root := NewAttested(Ring(40)).Commitment()
	liar := &liarBacking{att: NewAttested(Ring(40))}
	honest := NewAttested(Ring(40))
	shards := make([]Source, 2)
	for i, backing := range []Source{honest, liar} {
		ts := httptest.NewServer(NewProbeHandler(backing))
		t.Cleanup(ts.Close)
		r, err := OpenRemote(ts.URL, WithRetries(0), WithRetryBackoff(time.Millisecond), WithCommitment(root))
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = r
	}
	fleet, err := NewSharded(shards, WithFailureThreshold(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.(Closer).Close()
	sh := fleet.(*Sharded)

	// Collect the truth, then start lying and fetch every row in one
	// batch: the groups sent to the liar fail attestation, re-route, and
	// the rows must come back correct anyway.
	vs := make([]int, 40)
	for v := range vs {
		vs[v] = v
	}
	want := assembledRows(honest, vs)
	liar.lying.Store(true)
	rf, _ := RowFetcherOf(sh)
	got, err := rf.FetchRows(vs)
	if err != nil {
		t.Fatalf("batch spanning a lying replica: %v", err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("batch answered\n got %v\nwant %v", got, want)
	}
	if sh.AttestFailures() == 0 {
		t.Fatal("the lying group was re-routed but AttestFailures() == 0")
	}
	// The liar is out; every cell the batch touched now reads from the
	// honest replica.
	liar.lying.Store(false) // even an honest-again liar stays distrusted
	for v := 0; v < 40; v++ {
		if got := sh.Neighbor(v, 0); got != honest.Neighbor(v, 0) {
			t.Fatalf("post-batch Neighbor(%d,0) = %d: a lying replica answered", v, got)
		}
	}
	if health, ok := HealthOf(sh); !ok || health[1].State != ShardDistrusted {
		t.Fatalf("lying replica reports %+v, want %q", health[1], ShardDistrusted)
	}
}
