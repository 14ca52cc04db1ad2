package lca_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"lca"
	"lca/internal/serve"
	"lca/internal/source"
)

// TestSessionRoundTripsOwnChain is the Session counterpart of serve's
// TestRoundTripsScopedPerRequest: a Session's round trips are those of
// its own chain. Over one shared Remote, a second Session's queries do
// not move the first one's figure, and an edge query reports the same
// round trips from an untraced Session, a traced Session and an lcaserve
// front over the same shard. None of the three counts the input-edge
// check.
func TestSessionRoundTripsOwnChain(t *testing.T) {
	const spec = "circulant:n=5000,d=6,seed=3"
	local, err := lca.OpenSource(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	shard := httptest.NewServer(serve.NewFromSource(local, spec, 7).Handler())
	t.Cleanup(shard.Close)
	remote, err := source.OpenRemote(shard.URL)
	if err != nil {
		t.Fatal(err)
	}
	roundTrips := func(s *lca.Session, algo string) uint64 {
		t.Helper()
		st, err := s.ProbeStats(algo)
		if err != nil {
			t.Fatal(err)
		}
		return st.RoundTrips
	}

	a := lca.NewSessionFromSource(remote, lca.WithSeed(42))
	b := lca.NewSessionFromSource(remote, lca.WithSeed(42))
	for v := 0; v < 5; v++ {
		if _, err := a.Vertex("mis", v); err != nil {
			t.Fatal(err)
		}
	}
	before := roundTrips(a, "mis")
	if before == 0 {
		t.Fatal("mis queries over a remote source counted no round trips")
	}
	for i := 0; i < 50; i++ {
		if _, err := b.Vertex("mis", 100+37*i); err != nil {
			t.Fatal(err)
		}
	}
	if after := roundTrips(a, "mis"); after != before {
		t.Errorf("session A's round trips went from %d to %d while only session B queried", before, after)
	}

	u := 11
	v := remote.Neighbor(u, 0)
	front := httptest.NewServer(serve.NewFromSource(remote, "remote:"+shard.URL, 42).Handler())
	t.Cleanup(front.Close)
	resp, err := http.Get(fmt.Sprintf("%s/edge/spanner3?u=%d&v=%d", front.URL, u, v))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served struct {
		RoundTrips uint64 `json:"round_trips"`
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/edge answered status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*lca.Session{
		"untraced": lca.NewSessionFromSource(remote, lca.WithSeed(42)),
		"traced":   lca.NewSessionFromSource(remote, lca.WithSeed(42), lca.WithTracer(lca.NewTracer())),
	} {
		if _, err := s.Edge("spanner3", u, v); err != nil {
			t.Fatal(err)
		}
		if got := roundTrips(s, "spanner3"); got != served.RoundTrips {
			t.Errorf("%s session: edge (%d,%d) counted %d round trips, the served /edge answer %d", name, u, v, got, served.RoundTrips)
		}
	}
}
