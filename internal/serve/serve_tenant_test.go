package serve

// Serving-tier tests: tenant auth, admission control, per-tenant budget
// exhaustion end-to-end, request coalescing (charged once), the metrics
// plane and request-ID correlation. Run under -race in CI.

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lca/internal/gen"
	"lca/internal/metrics"
	"lca/internal/source"
)

// getJSONAuth is getJSON with a tenant token header.
func getJSONAuth(t *testing.T, url, token string, into any) int {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func newTenantServer(t *testing.T, tenants ...Tenant) (*httptest.Server, *Server) {
	t.Helper()
	g := gen.Gnp(300, 0.05, 7)
	srv := New(g, 42, WithTenants(tenants...))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = srv.Close() })
	return ts, srv
}

func TestTenantAuthRequired(t *testing.T) {
	ts, _ := newTenantServer(t, Tenant{Name: "ops", Token: "sekrit"})
	var envelope errorBody

	if code := getJSONAuth(t, ts.URL+"/vertex/mis?v=3", "", &envelope); code != 401 {
		t.Fatalf("tokenless query: status %d, want 401 (%+v)", code, envelope)
	}
	if envelope.Status != 401 || envelope.Error == "" || envelope.RequestID == "" {
		t.Fatalf("401 envelope incomplete: %+v", envelope)
	}
	if code := getJSONAuth(t, ts.URL+"/vertex/mis?v=3", "wrong", &envelope); code != 401 {
		t.Fatalf("bad token: status %d, want 401", code)
	}
	var ans vertexAnswer
	if code := getJSONAuth(t, ts.URL+"/vertex/mis?v=3", "sekrit", &ans); code != 200 {
		t.Fatalf("valid token: status %d, want 200", code)
	}

	// The X-LCA-Token header form works too.
	req, _ := http.NewRequest("GET", ts.URL+"/vertex/mis?v=3", nil)
	req.Header.Set(TokenHeader, "sekrit")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("%s form: status %d, want 200", TokenHeader, resp.StatusCode)
	}

	// Open plane stays open: discovery, health and metrics need no token.
	for _, path := range []string{"/healthz", "/algos", "/sources", MetricsPath} {
		var body any
		if code := getJSONAuth(t, ts.URL+path, "", &body); code != 200 {
			t.Errorf("%s: status %d without token, want 200 (open plane)", path, code)
		}
	}
}

// TestBudgetExhaustionEndToEnd is the acceptance scenario: a tenant with
// a tiny probe budget is rejected with a 429 envelope while an unlimited
// tenant on the same server keeps answering — concurrently, under -race.
func TestBudgetExhaustionEndToEnd(t *testing.T) {
	ts, srv := newTenantServer(t,
		Tenant{Name: "capped", Token: "tiny", ProbeBudget: 1},
		Tenant{Name: "free", Token: "open"},
	)
	const rounds = 12
	var wg sync.WaitGroup
	codes := make([]int, 2*rounds)
	envelopes := make([]errorBody, rounds)
	for i := 0; i < rounds; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			codes[2*i] = getJSONAuth(t, fmt.Sprintf("%s/vertex/mis?v=%d", ts.URL, i), "tiny", &envelopes[i])
		}(i)
		go func(i int) {
			defer wg.Done()
			var ans vertexAnswer
			codes[2*i+1] = getJSONAuth(t, fmt.Sprintf("%s/vertex/mis?v=%d", ts.URL, i), "open", &ans)
		}(i)
	}
	wg.Wait()
	for i := 0; i < rounds; i++ {
		if codes[2*i] != 429 {
			t.Errorf("capped tenant query %d: status %d, want 429", i, codes[2*i])
		}
		if envelopes[i].Status != 429 || envelopes[i].RequestID == "" {
			t.Errorf("429 envelope incomplete: %+v", envelopes[i])
		}
		if codes[2*i+1] != 200 {
			t.Errorf("unlimited tenant query %d: status %d, want 200", i, codes[2*i+1])
		}
	}
	if got := srv.Metrics().Counter("tenant_budget_rejected_total{tenant=capped}").Value(); got != rounds {
		t.Errorf("budget rejections for capped = %d, want %d", got, rounds)
	}
	if got := srv.Metrics().Counter("tenant_budget_rejected_total{tenant=free}").Value(); got != 0 {
		t.Errorf("budget rejections for free = %d, want 0", got)
	}
}

func TestAdmissionRateLimit(t *testing.T) {
	ts, srv := newTenantServer(t,
		Tenant{Name: "slow", Token: "drip", QPS: 0.001, Burst: 2},
		Tenant{Name: "fast", Token: "firehose"},
	)
	codes := make([]int, 4)
	for i := range codes {
		var body json.RawMessage
		codes[i] = getJSONAuth(t, ts.URL+"/vertex/mis?v=5", "drip", &body)
	}
	// Burst of 2 admitted, the rest rejected (refill is ~0 at 0.001 qps).
	if codes[0] != 200 || codes[1] != 200 || codes[2] != 429 || codes[3] != 429 {
		t.Fatalf("admission codes = %v, want [200 200 429 429]", codes)
	}
	var ans vertexAnswer
	if code := getJSONAuth(t, ts.URL+"/vertex/mis?v=5", "firehose", &ans); code != 200 {
		t.Fatalf("unlimited tenant blocked by another tenant's bucket: %d", code)
	}
	if got := srv.Metrics().Counter("tenant_admission_rejected_total{tenant=slow}").Value(); got != 2 {
		t.Errorf("admission rejections = %d, want 2", got)
	}
}

// blockingSource wedges every probe until released, so a test can pile
// identical requests onto one in-flight execution deterministically.
type blockingSource struct {
	source.Source
	release chan struct{}
}

func (b *blockingSource) Degree(v int) int {
	<-b.release
	return b.Source.Degree(v)
}

func (b *blockingSource) Neighbor(v, i int) int {
	<-b.release
	return b.Source.Neighbor(v, i)
}

func (b *blockingSource) Adjacency(u, v int) int {
	<-b.release
	return b.Source.Adjacency(u, v)
}

// TestCoalescingChargedOnce: concurrent identical queries share one
// oracle execution — the metrics plane records one execution's probes,
// N-1 coalesced waiters, and every caller gets the identical answer.
func TestCoalescingChargedOnce(t *testing.T) {
	blocked := &blockingSource{Source: source.Ring(100), release: make(chan struct{})}
	srv := NewFromSource(blocked, "ring:n=100 (blocking)", 42)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const dup = 8
	var wg sync.WaitGroup
	answers := make([]vertexAnswer, dup)
	codes := make([]int, dup)
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = getJSON(t, ts.URL+"/vertex/mis?v=7", &answers[i])
		}(i)
	}
	// Wait until all duplicates joined the leader's flight, then release
	// the probes.
	coalesced := srv.Metrics().Counter("serve_coalesced_total")
	deadline := time.Now().Add(5 * time.Second)
	for coalesced.Value() < dup-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests coalesced, want %d", coalesced.Value(), dup-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(blocked.release)
	wg.Wait()

	for i := 0; i < dup; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !reflect.DeepEqual(answers[i], answers[0]) {
			t.Fatalf("coalesced answers diverge: %+v vs %+v", answers[i], answers[0])
		}
	}
	if answers[0].Probes == 0 {
		t.Fatal("query reports zero probes")
	}
	// Charged once: the server-wide probe total is one execution's count,
	// not dup executions'.
	if got := srv.Metrics().Counter("serve_probes_total").Value(); got != answers[0].Probes {
		t.Errorf("serve_probes_total = %d, want one execution's %d", got, answers[0].Probes)
	}
	if got := coalesced.Value(); got != dup-1 {
		t.Errorf("serve_coalesced_total = %d, want %d", got, dup-1)
	}
	if srv.flights.inFlight() != 0 {
		t.Errorf("flight table not drained: %d keys in flight", srv.flights.inFlight())
	}
	// All dup requests observed on the request plane.
	if got := srv.Metrics().Counter("serve_queries_total{kind=vertex}").Value(); got != dup {
		t.Errorf("serve_queries_total{kind=vertex} = %d, want %d", got, dup)
	}
}

// TestMetricsEndpoint: a query burst shows up as non-zero counters and
// latency/probe histograms on GET /metrics, in JSON and text form.
func TestMetricsEndpoint(t *testing.T) {
	g := gen.Gnp(200, 0.1, 7)
	srv := New(g, 42)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for v := 0; v < 10; v++ {
		var ans vertexAnswer
		if code := getJSON(t, fmt.Sprintf("%s/vertex/mis?v=%d", ts.URL, v), &ans); code != 200 {
			t.Fatalf("query %d: status %d", v, code)
		}
	}
	var snap metrics.Snapshot
	if code := getJSON(t, ts.URL+MetricsPath, &snap); code != 200 {
		t.Fatalf("%s: status %d", MetricsPath, code)
	}
	if got := snap.Counters["serve_queries_total{kind=vertex}"]; got != 10 {
		t.Errorf("queries counter = %d, want 10", got)
	}
	if got := snap.Counters["serve_probes_total"]; got == 0 {
		t.Error("probe counter is zero after a query burst")
	}
	lat := snap.Histograms["serve_query_latency_us{kind=vertex}"]
	if lat.Count != 10 || lat.P99 == 0 {
		t.Errorf("latency histogram empty: %+v", lat)
	}
	probes := snap.Histograms["serve_probes_per_query"]
	if probes.Count != 10 || probes.Mean == 0 {
		t.Errorf("probes-per-query histogram empty: %+v", probes)
	}

	resp, err := http.Get(ts.URL + MetricsPath + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var text [4096]byte
	n, _ := resp.Body.Read(text[:])
	if resp.StatusCode != 200 || n == 0 {
		t.Fatalf("text export: status %d, %d bytes", resp.StatusCode, n)
	}
}

// TestEstimateProbesReachMetrics: an estimate's probes add to
// serve_probes_total and reach its request-log line, but not the
// per-query histograms: one estimate is many point queries.
func TestEstimateProbesReachMetrics(t *testing.T) {
	var log strings.Builder
	srv := New(gen.Gnp(200, 0.1, 7), 42, WithLogger(slog.New(slog.NewTextHandler(&log, nil))))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/estimate/mis?samples=50", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate: status %d: %s", rec.Code, rec.Body)
	}
	probes := srv.Metrics().Counter("serve_probes_total").Value()
	if probes == 0 {
		t.Fatal("serve_probes_total is zero after an estimate")
	}
	if h := srv.Metrics().Snapshot().Histograms["serve_probes_per_query"]; h.Count != 0 {
		t.Errorf("an estimate observed serve_probes_per_query: %+v", h)
	}
	if want := fmt.Sprintf("probes=%d", probes); !slices.Contains(strings.Fields(log.String()), want) {
		t.Errorf("the estimate's request-log line lacks %s: %s", want, log.String())
	}
}

// TestRequestIDPropagation: client-supplied IDs echo back, absent ones
// are generated, and error envelopes embed the ID.
func TestRequestIDPropagation(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()

	req, _ := http.NewRequest("GET", ts.URL+"/vertex/mis?v=3", nil)
	req.Header.Set(RequestIDHeader, "load-42.a")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "load-42.a" {
		t.Fatalf("client request ID not echoed: %q", got)
	}

	resp, err = http.Get(ts.URL + "/vertex/mis?v=999999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	headerID := resp.Header.Get(RequestIDHeader)
	if headerID == "" {
		t.Fatal("no generated request ID on error response")
	}
	var envelope errorBody
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.RequestID != headerID {
		t.Fatalf("envelope request_id %q != header %q", envelope.RequestID, headerID)
	}

	// Unsafe client IDs (injection into logs/headers) are replaced.
	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, "bad id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got == "" || got == "bad id with spaces" {
		t.Fatalf("unsafe request ID not replaced: %q", got)
	}
}

func TestLoadTenantsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	body := `[
	  {"name": "capped", "token": "t1", "probe_budget": 500, "round_trip_budget": 32, "qps": 100, "burst": 200},
	  {"name": "free", "token": "t2"}
	]`
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	ts, err := LoadTenantsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].ProbeBudget != 500 || ts[0].RoundTripBudget != 32 || ts[0].QPS != 100 || ts[1].Name != "free" {
		t.Fatalf("parsed tenants wrong: %+v", ts)
	}
	if _, err := LoadTenantsFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestRoundTripBudget429: a tenant with a tiny round-trip budget is
// rejected over a network source while the probe-identical unlimited
// tenant proceeds.
func TestRoundTripBudget429(t *testing.T) {
	shard := httptest.NewServer(source.NewProbeHandler(source.Ring(400)))
	t.Cleanup(shard.Close)
	remote, err := source.OpenRemote(shard.URL)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewFromSource(remote, "remote:"+shard.URL, 42,
		WithTenants(
			Tenant{Name: "wired", Token: "rt1", RoundTripBudget: 1},
			Tenant{Name: "free", Token: "rt2"},
		))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = srv.Close() })

	var envelope errorBody
	if code := getJSONAuth(t, ts.URL+"/vertex/mis?v=57", "rt1", &envelope); code != 429 {
		t.Fatalf("round-trip-capped tenant: status %d, want 429 (%+v)", code, envelope)
	}
	var ans vertexAnswer
	if code := getJSONAuth(t, ts.URL+"/vertex/mis?v=57", "rt2", &ans); code != 200 || ans.RoundTrips <= 1 {
		t.Fatalf("unlimited tenant: status %d, round_trips %d (want 200 and >1)", code, ans.RoundTrips)
	}
}
