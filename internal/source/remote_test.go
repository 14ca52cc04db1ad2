package source

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lca/internal/gen"
)

// newShard spins up an httptest server speaking the probe wire protocol
// over src — the minimal network shard.
func newShard(t testing.TB, src Source) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewProbeHandler(src))
	t.Cleanup(ts.Close)
	return ts
}

// openRemoteShard opens a Remote over a fresh shard backed by src.
func openRemoteShard(t testing.TB, src Source) Source {
	t.Helper()
	r, err := OpenRemote(newShard(t, src).URL)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestConformanceRemote runs the Source contract suite over network
// shards: a remote wrapping an implicit backend, a remote wrapping a
// random family, a sharded fleet of remote replicas, and the same fleet
// with the LRU tier — the acceptance shape of the remote layer.
func TestConformanceRemote(t *testing.T) {
	offsets, err := gen.CirculantOffsets(60, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		open Factory
	}{
		{"remote/circulant", func(t testing.TB) Source {
			circ, err := Circulant(60, offsets)
			if err != nil {
				t.Fatal(err)
			}
			return openRemoteShard(t, circ)
		}},
		{"remote/blockrandom", func(t testing.TB) Source {
			return openRemoteShard(t, BlockRandom(80, 16, 5, 2))
		}},
		{"sharded/remote-x2", func(t testing.TB) Source {
			s, err := NewSharded([]Source{
				openRemoteShard(t, Ring(70)),
				openRemoteShard(t, Ring(70)),
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		// The "-lru" name is historical (the fleet once ran under a probe
		// LRU); it is kept so this case's test IDs stay comparable.
		{"sharded/remote-x3-lru", func(t testing.TB) Source {
			var shards []Source
			for i := 0; i < 3; i++ {
				shards = append(shards, openRemoteShard(t, BlockRandom(64, 16, 4, 8)))
			}
			s, err := NewSharded(shards)
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

// TestRemoteMatchesBacking pins protocol transparency: a remote source
// answers cell-for-cell identically to the backend its shard wraps.
func TestRemoteMatchesBacking(t *testing.T) {
	backing := BlockRandom(90, 16, 5, 6)
	r := openRemoteShard(t, backing)
	if r.N() != backing.N() {
		t.Fatalf("remote N = %d, want %d", r.N(), backing.N())
	}
	for v := 0; v < backing.N(); v += 3 {
		if got, want := r.Degree(v), backing.Degree(v); got != want {
			t.Fatalf("remote Degree(%d) = %d, want %d", v, got, want)
		}
		d := backing.Degree(v)
		for i := 0; i <= d; i++ {
			if got, want := r.Neighbor(v, i), backing.Neighbor(v, i); got != want {
				t.Fatalf("remote Neighbor(%d,%d) = %d, want %d", v, i, got, want)
			}
		}
	}
}

// TestRemoteCapabilities: the remote mirrors the shard's EdgeCounter /
// DegreeBounder capabilities through /probe/meta — present for a ring,
// absent for blockrandom — on its dynamic capability view.
func TestRemoteCapabilities(t *testing.T) {
	ring := openRemoteShard(t, Ring(40))
	if mc, ok := EdgeCounterOf(ring); !ok || mc.M() != 40 {
		t.Fatalf("remote ring: EdgeCounter ok=%v", ok)
	}
	if db, ok := DegreeBounderOf(ring); !ok || db.MaxDegree() != 2 {
		t.Fatalf("remote ring: DegreeBounder ok=%v", ok)
	}
	br := openRemoteShard(t, BlockRandom(40, 8, 3, 1))
	if _, ok := EdgeCounterOf(br); ok {
		t.Fatal("remote blockrandom invented EdgeCounter")
	}
	if _, ok := DegreeBounderOf(br); ok {
		t.Fatal("remote blockrandom invented DegreeBounder")
	}
}

// TestRemoteRetries: transient 5xx answers are retried with backoff and
// the probe still succeeds; the failure never leaks to the caller.
func TestRemoteRetries(t *testing.T) {
	inner := NewProbeHandler(Ring(30))
	var fails int32 = 2
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/probe") && r.URL.Query().Get("op") != "" &&
			atomic.AddInt32(&fails, -1) >= 0 {
			http.Error(w, "shard warming up", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(flaky)
	defer ts.Close()
	r, err := OpenRemote(ts.URL, WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Degree(7); d != 2 {
		t.Fatalf("Degree(7) = %d after transient failures, want 2", d)
	}
	if atomic.LoadInt32(&fails) != -1 {
		t.Fatalf("expected both injected failures consumed, fails=%d", fails)
	}
}

// recoverProbeError runs fn and returns the *ProbeError it panics with,
// failing the test if it does not panic that way.
func recoverProbeError(t *testing.T, fn func()) (pe *ProbeError) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("probe unexpectedly succeeded")
		}
		var ok bool
		if pe, ok = r.(*ProbeError); !ok {
			t.Fatalf("panic payload %T, want *ProbeError", r)
		}
	}()
	fn()
	return nil
}

// TestRemoteExhaustedRetriesPanicTyped: a shard that stays down surfaces
// as a typed *ProbeError panic naming the shard and probe.
func TestRemoteExhaustedRetriesPanicTyped(t *testing.T) {
	inner := NewProbeHandler(Ring(30))
	down := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("op") != "" {
			http.Error(w, "shard down", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(down)
	defer ts.Close()
	r, err := OpenRemote(ts.URL, WithRetries(1), WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	pe := recoverProbeError(t, func() { r.Degree(3) })
	if pe.Op != OpDegree || pe.A != 3 {
		t.Fatalf("ProbeError identifies %s(%d,%d), want degree(3,0)", pe.Op, pe.A, pe.B)
	}
	if !strings.Contains(pe.Error(), ts.URL) {
		t.Fatalf("ProbeError %q does not name the shard %s", pe.Error(), ts.URL)
	}
}

// TestRemoteTimeout: a hung shard trips the per-request timeout instead
// of blocking the query forever.
func TestRemoteTimeout(t *testing.T) {
	inner := NewProbeHandler(Ring(30))
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("op") != "" {
			time.Sleep(300 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(slow)
	defer ts.Close()
	r, err := OpenRemote(ts.URL, WithTimeout(30*time.Millisecond), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	recoverProbeError(t, func() { r.Neighbor(5, 0) })
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("timeout took %v, want well under the shard's 300ms hang", elapsed)
	}
}

// TestRemoteBadRequestNotRetried: protocol-level 4xx answers fail fast —
// retrying a request the shard rejected cannot help.
func TestRemoteBadRequestNotRetried(t *testing.T) {
	var calls int32
	inner := NewProbeHandler(Ring(30))
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("op") != "" {
			atomic.AddInt32(&calls, 1)
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(counting)
	defer ts.Close()
	r, err := OpenRemote(ts.URL, WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	recoverProbeError(t, func() { r.Degree(999) }) // out of range: shard answers 400
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("400 answer was requested %d times, want exactly 1 (no retries)", got)
	}
}

// TestRemoteBatch round-trips a batch POST of rows and checks index
// alignment, a repeated vertex included.
func TestRemoteBatch(t *testing.T) {
	backing := Ring(50)
	r := openRemoteShard(t, backing)
	rf, _ := RowFetcherOf(r)
	vs := []int{10, 49, 10, 0}
	rows, err := rf.FetchRows(vs)
	if err != nil {
		t.Fatal(err)
	}
	if want := assembledRows(backing, vs); fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("batch rows %v, want %v", rows, want)
	}
}

// TestRemoteNamedSource: the URL fragment selects a named source on a
// multi-source shard (exercised against a handler that routes ?source=).
func TestRemoteNamedSource(t *testing.T) {
	ringH := NewProbeHandler(Ring(20))
	gridH := NewProbeHandler(Grid(4, 5))
	mux := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("source") {
		case "":
			ringH.ServeHTTP(w, r)
		case "grid":
			gridH.ServeHTTP(w, r)
		default:
			http.Error(w, "unknown source", http.StatusNotFound)
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	grid, err := OpenRemote(ts.URL + "#grid")
	if err != nil {
		t.Fatal(err)
	}
	// Grid 4x5 corner 0 has degree 2; the ring default would answer 2 as
	// well, so check an interior vertex where the answers differ.
	if d := grid.Degree(6); d != 4 {
		t.Fatalf("named grid source Degree(6) = %d, want 4", d)
	}
}

// TestOpenRemoteErrors: URL validation and non-shard endpoints fail with
// errors, never panics.
func TestOpenRemoteErrors(t *testing.T) {
	for _, bad := range []string{"", "ftp://host", "http://"} {
		if _, err := OpenRemote(bad, WithRetries(0)); err == nil {
			t.Errorf("OpenRemote(%q) unexpectedly succeeded", bad)
		}
	}
	notAShard := httptest.NewServer(http.NotFoundHandler())
	defer notAShard.Close()
	if _, err := OpenRemote(notAShard.URL, WithRetries(0)); err == nil {
		t.Error("OpenRemote against a non-shard endpoint unexpectedly succeeded")
	}
}

// TestProbeHandlerBatchForwardsAsBatch: a shard fronting a remote source
// must relay a POST /probe batch of rows as one upstream round trip, not
// one GET per cell.
func TestProbeHandlerBatchForwardsAsBatch(t *testing.T) {
	var gets, posts int32
	inner := NewProbeHandler(Ring(40))
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/probe" {
			switch r.Method {
			case http.MethodGet:
				atomic.AddInt32(&gets, 1)
			case http.MethodPost:
				atomic.AddInt32(&posts, 1)
			}
		}
		inner.ServeHTTP(w, r)
	})
	upstream := httptest.NewServer(counting)
	defer upstream.Close()
	mid, err := OpenRemote(upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(NewProbeHandler(mid))
	defer front.Close()
	body := `{"probes":[{"op":"rowfull","a":1},{"op":"rowfull","a":2},{"op":"rowfull","a":3},{"op":"rowfull","a":4}]}`
	resp, err := http.Post(front.URL+"/probe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out probeBatchAnswer
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out.Answers) != "[2 2 2 2]" || fmt.Sprint(out.Rows) != "[[0 2] [1 3] [2 4] [3 5]]" {
		t.Fatalf("relayed batch answered %v with rows %v", out.Answers, out.Rows)
	}
	if g, p := atomic.LoadInt32(&gets), atomic.LoadInt32(&posts); g != 0 || p != 1 {
		t.Fatalf("upstream saw %d GETs and %d POSTs for one 4-probe batch, want 0 and 1", g, p)
	}
}

// TestProbeHandlerDeadUpstream502: a shard that itself fronts other
// shards (remote-of-remote composition) must answer a 502 envelope when
// its upstream dies, not crash the HTTP connection.
func TestProbeHandlerDeadUpstream502(t *testing.T) {
	upstream := httptest.NewServer(NewProbeHandler(Ring(50)))
	mid, err := OpenRemote(upstream.URL, WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(NewProbeHandler(mid))
	defer front.Close()
	upstream.Close()
	for _, probe := range []string{"/probe?op=degree&a=1", "/probe?op=neighbor&a=1&b=0"} {
		resp, err := http.Get(front.URL + probe)
		if err != nil {
			t.Fatalf("%s: transport error %v, want a 502 response", probe, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("%s: status %d, want 502", probe, resp.StatusCode)
		}
	}
	resp, err := http.Post(front.URL+"/probe", "application/json",
		strings.NewReader(`{"probes":[{"op":"rowfull","a":3}]}`))
	if err != nil {
		t.Fatalf("batch: transport error %v, want a 502 response", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("batch: status %d, want 502", resp.StatusCode)
	}
}

// TestWithTimeoutNeverMutatesCallerClient: a caller-owned client supplied
// via WithHTTPClient keeps its configuration regardless of option order.
func TestWithTimeoutNeverMutatesCallerClient(t *testing.T) {
	ts := newShard(t, Ring(10))
	shared := &http.Client{Timeout: 7 * time.Second}
	if _, err := OpenRemote(ts.URL, WithHTTPClient(shared), WithTimeout(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRemote(ts.URL, WithTimeout(time.Second), WithHTTPClient(shared)); err != nil {
		t.Fatal(err)
	}
	if shared.Timeout != 7*time.Second {
		t.Fatalf("caller-owned client timeout mutated to %v", shared.Timeout)
	}
}

// TestRemoteCloseIdempotent: Close twice is fine and the source stays
// usable afterwards (Close only drops idle connections).
func TestRemoteCloseIdempotent(t *testing.T) {
	r := openRemoteShard(t, Ring(15))
	c := r.(Closer)
	if err := errors.Join(c.Close(), c.Close()); err != nil {
		t.Fatal(err)
	}
	if d := r.Degree(0); d != 2 {
		t.Fatalf("Degree after Close = %d, want 2", d)
	}
}

// TestParseRemoteAndShardedSpecs drives the new grammar end to end: a
// remote: spec against a live shard, and sharded: lists in both
// separator forms with a cache item.
func TestParseRemoteAndShardedSpecs(t *testing.T) {
	a := newShard(t, Ring(25))
	b := newShard(t, Ring(25))
	src, err := Parse("remote:"+a.URL, 7)
	if err != nil {
		t.Fatal(err)
	}
	if src.N() != 25 || src.Degree(3) != 2 {
		t.Fatalf("remote spec: n=%d deg(3)=%d", src.N(), src.Degree(3))
	}
	sharded, err := Parse("sharded:remote:"+a.URL+",remote:"+b.URL, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.N() != 25 || sharded.Neighbor(10, 1) != 11 {
		t.Fatalf("sharded spec: n=%d nbr(10,1)=%d", sharded.N(), sharded.Neighbor(10, 1))
	}
	if c, ok := sharded.(Closer); !ok {
		t.Fatal("sharded source is not a Closer")
	} else if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Semicolon form with comma-bearing sub-specs.
	mixed, err := Parse("sharded:grid:rows=6,cols=7;grid:rows=6,cols=7", 7)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.N() != 42 || mixed.Degree(0) != 2 {
		t.Fatalf("mixed sharded spec: n=%d deg(0)=%d", mixed.N(), mixed.Degree(0))
	}
	// Error cases must name the offending token.
	for spec, token := range map[string]string{
		"sharded:":                   "sharded",
		"sharded:ring:n=5;ring:n=6":  "replicas",
		"sharded:ring:n=5;;ring:n=5": "empty shard",
		"remote:":                    "remote",
		"remote:ftp://host":          "scheme",
		"sharded:warp:n=5":           "warp",
	} {
		_, err := Parse(spec, 7)
		if err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", spec)
			continue
		}
		if !strings.Contains(err.Error(), token) {
			t.Errorf("Parse(%q) error %q does not name %q", spec, err, token)
		}
	}
	// A sharded source caches no probes: a cache=N item is rejected
	// wherever it sits, naming itself and the row caches that replace it.
	for _, spec := range []string{
		"sharded:cache=128;grid:rows=6,cols=7;grid:rows=6,cols=7",
		"sharded:cache=64;ring:n=5;ring:n=5",
		"sharded:ring:n=5;ring:n=5;cache=64",
		"sharded:cache=xyz;ring:n=5",
	} {
		_, err := Parse(spec, 7)
		if err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", spec)
			continue
		}
		for _, token := range []string{"cache=", "lca.WithRowCache(N)", "prefetch=1"} {
			if !strings.Contains(err.Error(), token) {
				t.Errorf("Parse(%q) error %q does not name %q", spec, err, token)
			}
		}
	}
}

// outOfRangeShard answers every scalar probe with n, the first vertex
// past its n-vertex graph, and every rowfull row with a cell of n; its
// meta plane is an honest ring's.
func outOfRangeShard(t *testing.T, n int) *httptest.Server {
	t.Helper()
	inner := NewProbeHandler(Ring(n))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path != "/probe":
			inner.ServeHTTP(w, r)
		case r.Method == http.MethodPost:
			var req probeBatchReq
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			var out probeBatchAnswer
			for _, p := range req.Probes {
				out.Answers = append(out.Answers, 2)
				out.Rows = append(out.Rows, []int{(p.A + 1) % n, n})
			}
			_ = json.NewEncoder(w).Encode(out)
		default:
			_ = json.NewEncoder(w).Encode(probeAnswer{Answer: n})
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRemoteRejectsOutOfRangeAnswers: an unpinned shard's answers are
// range-checked on each decode path — scalar and rowfull — and a
// rejected answer is a temporary ProbeError, so a fleet serves the
// probe from another replica exactly as it would past a dead one.
func TestRemoteRejectsOutOfRangeAnswers(t *testing.T) {
	const n = 30
	liar, err := OpenRemote(outOfRangeShard(t, n).URL, WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	for op, probe := range map[string]func(){
		OpDegree:    func() { liar.Degree(3) },
		OpNeighbor:  func() { liar.Neighbor(3, 0) },
		OpAdjacency: func() { liar.Adjacency(3, 4) },
	} {
		if pe := recoverProbeError(t, probe); pe.Op != op || !pe.Temporary() {
			t.Errorf("%s: %v (temporary %v), want a temporary %s ProbeError", op, pe, pe.Temporary(), op)
		}
	}
	var pe *ProbeError
	rf, _ := RowFetcherOf(liar)
	if _, err := rf.FetchRows([]int{3}); !errors.As(err, &pe) || pe.Op != OpRowFull || !pe.Temporary() {
		t.Errorf("rowfull: %v, want a temporary rowfull ProbeError", err)
	}

	honest, err := OpenRemote(newShard(t, Ring(n)).URL, WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewSharded([]Source{liar, honest}, WithFailureThreshold(2))
	if err != nil {
		t.Fatal(err)
	}
	want := Ring(n)
	for v := 0; v < n; v++ {
		if fleet.Degree(v) != 2 || fleet.Neighbor(v, 1) != want.Neighbor(v, 1) || fleet.Adjacency(v, (v+1)%n) != want.Adjacency(v, (v+1)%n) {
			t.Fatalf("the fleet answered vertex %d from the liar", v)
		}
	}
	rf, _ = RowFetcherOf(fleet)
	vs := []int{0, 7, 11, 29}
	rows, err := rf.FetchRows(vs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if len(rows[i]) != 2 || rows[i][0] != want.Neighbor(v, 0) || rows[i][1] != want.Neighbor(v, 1) {
			t.Fatalf("fleet row %d = %v", v, rows[i])
		}
	}
	if fleet.(FailoverCounter).Failovers() == 0 {
		t.Error("the fleet never failed a probe over from the liar")
	}
}
