package source

import (
	"net/http"
	"testing"

	"lca/internal/rnd"
)

// bareSource strips every optional capability from a Source: only the
// four probes survive the embedded-interface method set.
type bareSource struct{ Source }

func TestRemoteRandomEdgeCapabilityMirrorsShard(t *testing.T) {
	withRE := openRemoteShard(t, Ring(40))
	if _, ok := RandomEdgerOf(withRE); !ok {
		t.Fatal("remote over a RandomEdger backend lacks the capability")
	}
	withoutRE := openRemoteShard(t, bareSource{Ring(40)})
	if _, ok := RandomEdgerOf(withoutRE); ok {
		t.Fatal("remote invented the RandomEdge capability")
	}
}

func TestRemoteRandomEdgeDeterministicAndValid(t *testing.T) {
	backing := Ring(40)
	r, ok := RandomEdgerOf(openRemoteShard(t, backing))
	if !ok {
		t.Fatal("remote over a RandomEdger backend lacks the capability")
	}
	var first []int
	for pass := 0; pass < 2; pass++ {
		prg := rnd.NewPRG(17)
		var got []int
		for i := 0; i < 20; i++ {
			u, v := r.RandomEdge(prg)
			if u >= v {
				t.Fatalf("RandomEdge answered (%d,%d), want canonical u < v", u, v)
			}
			if backing.Adjacency(u, v) < 0 {
				t.Fatalf("RandomEdge answered non-edge (%d,%d)", u, v)
			}
			got = append(got, u, v)
		}
		if pass == 0 {
			first = got
			continue
		}
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("pass 2 diverged at %d: %d vs %d (equal seeds must answer equal edges)", i, got[i], first[i])
			}
		}
	}
}

func TestShardedRandomEdgeCapability(t *testing.T) {
	a := openRemoteShard(t, Ring(40))
	b := openRemoteShard(t, Ring(40))
	s, err := NewSharded([]Source{a, b})
	if err != nil {
		t.Fatal(err)
	}
	re, ok := RandomEdgerOf(s)
	if !ok {
		t.Fatal("sharded fleet of RandomEdger shards lacks the capability")
	}
	backing := Ring(40)
	var first []int
	for pass := 0; pass < 2; pass++ {
		prg := rnd.NewPRG(23)
		var got []int
		for i := 0; i < 20; i++ {
			u, v := re.RandomEdge(prg)
			if backing.Adjacency(u, v) < 0 {
				t.Fatalf("sharded RandomEdge answered non-edge (%d,%d)", u, v)
			}
			got = append(got, u, v)
		}
		if pass == 0 {
			first = got
			continue
		}
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("sharded pass 2 diverged at %d", i)
			}
		}
	}
}

func TestShardedRandomEdgeRequiresEveryShard(t *testing.T) {
	s, err := NewSharded([]Source{Ring(40), bareSource{Ring(40)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := RandomEdgerOf(s); ok {
		t.Fatal("sharded advertised RandomEdge with a capability-less shard")
	}
}

func TestRemoteRoundTripsCountRequests(t *testing.T) {
	src := openRemoteShard(t, Ring(40))
	rt := src.(RoundTripCounter)
	base := rt.RoundTrips() // the meta fetch
	src.Degree(3)
	src.Neighbor(3, 0)
	src.Adjacency(3, 4)
	if got := rt.RoundTrips() - base; got != 3 {
		t.Fatalf("3 scalar probes counted %d round trips", got)
	}
	rf, _ := RowFetcherOf(src)
	before := rt.RoundTrips()
	if _, err := rf.FetchRows([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := rt.RoundTrips() - before; got != 1 {
		t.Fatalf("one batch of rows counted %d round trips, want 1", got)
	}
}

func TestShardedRoundTripsSumShards(t *testing.T) {
	a := openRemoteShard(t, Ring(40))
	b := openRemoteShard(t, Ring(40))
	s, err := NewSharded([]Source{a, b})
	if err != nil {
		t.Fatal(err)
	}
	rt := s.(RoundTripCounter)
	base := rt.RoundTrips()
	for v := 0; v < 10; v++ {
		s.Degree(v)
	}
	if got := rt.RoundTrips() - base; got != 10 {
		t.Fatalf("10 routed probes counted %d round trips", got)
	}
}

func TestRandomEdgeNotBatchable(t *testing.T) {
	ts := newShard(t, Ring(40))
	if status, body := postProbes(t, ts.URL, `{"probes":[{"op":"randomedge","a":0}]}`); status != http.StatusBadRequest {
		t.Fatalf("randomedge in a batch: status %d %s, want 400", status, body)
	}
}
