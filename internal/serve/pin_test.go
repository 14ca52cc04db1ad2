package serve

// Byte pins of the query plane: fixed requests against fixed servers,
// compared byte for byte with recorded bodies and a recorded audit log.
// Answers, error envelopes and audit records are pure functions of the
// request, the source and the seed, so any drift in their bytes is a
// change of the HTTP or audit contract.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"lca/internal/gen"
	"lca/internal/source"
)

// pinGet sends GET path with a fixed request ID (and token, when set) and
// returns the status and the raw body.
func pinGet(t *testing.T, ts *httptest.Server, path, token string) (int, string) {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, "pin-0001")
	if token != "" {
		req.Header.Set(TokenHeader, token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestHTTPSurfacePinned: one answer per kind and the estimates of a
// vertex and an edge kind, plain and through the row tier, and the error
// envelopes of every request check the query plane makes, each
// byte-identical to its recorded body.
func TestHTTPSurfacePinned(t *testing.T) {
	g := gen.Gnp(200, 0.1, 7) // (0,47) is an edge, (0,2) is not
	ts := httptest.NewServer(New(g, 42).Handler())
	defer ts.Close()
	capped := New(g, 42, WithTenants(Tenant{Name: "capped", Token: "tiny", ProbeBudget: 1}))
	tsCapped := httptest.NewServer(capped.Handler())
	defer tsCapped.Close()

	cases := []struct {
		ts     *httptest.Server
		token  string
		path   string
		status int
		body   string
	}{
		{ts, "", "/edge/spanner3?u=0&v=47", 200, `{"algo":"spanner3","u":0,"v":47,"in":true,"probes":3}`},
		{ts, "", "/edge/spanner3?u=0&v=47&prefetch=1", 200, `{"algo":"spanner3","u":0,"v":47,"in":true,"probes":3,"l1_hits":1}`},
		{ts, "", "/vertex/mis?v=7", 200, `{"algo":"mis","v":7,"in":true,"probes":1184}`},
		{ts, "", "/vertex/mis?v=7&prefetch=1", 200, `{"algo":"mis","v":7,"in":true,"probes":1184}`},
		{ts, "", "/label/coloring?v=9", 200, `{"algo":"coloring","v":9,"label":4,"probes":1130}`},
		{ts, "", "/label/coloring?v=9&prefetch=1", 200, `{"algo":"coloring","v":9,"label":4,"probes":1130}`},
		{ts, "", "/edge/mis?u=1&v=2", 404, `{"error":"algorithm \"mis\" answers vertex queries, not edge (see /algos)","status":404,"request_id":"pin-0001"}`},
		{ts, "", "/vertex/spanner3?v=1", 404, `{"error":"algorithm \"spanner3\" answers edge queries, not vertex (see /algos)","status":404,"request_id":"pin-0001"}`},
		{ts, "", "/label/matching?v=1", 404, `{"error":"algorithm \"matching\" answers edge queries, not label (see /algos)","status":404,"request_id":"pin-0001"}`},
		{ts, "", "/edge/spanner3?u=1", 400, `{"error":"missing query parameter \"v\"","status":400,"request_id":"pin-0001"}`},
		{ts, "", "/vertex/mis", 400, `{"error":"missing query parameter \"v\"","status":400,"request_id":"pin-0001"}`},
		{ts, "", "/label/coloring", 400, `{"error":"missing query parameter \"v\"","status":400,"request_id":"pin-0001"}`},
		{ts, "", "/edge/spanner3?u=200&v=1", 400, `{"error":"vertex 200 out of range [0,200)","status":400,"request_id":"pin-0001"}`},
		{ts, "", "/vertex/mis?v=200", 400, `{"error":"vertex 200 out of range [0,200)","status":400,"request_id":"pin-0001"}`},
		{ts, "", "/label/coloring?v=-1", 400, `{"error":"vertex -1 out of range [0,200)","status":400,"request_id":"pin-0001"}`},
		{ts, "", "/edge/spanner3?u=0&v=2", 400, `{"error":"(0,2) is not an edge of the graph","status":400,"request_id":"pin-0001"}`},
		{ts, "", "/edge/spanner3?u=1&v=2&w=3", 400, `{"error":"unknown query parameter \"w\" for algorithm \"spanner3\"","status":400,"request_id":"pin-0001"}`},
		{ts, "", "/vertex/mis?v=1&u=2", 400, `{"error":"unknown query parameter \"u\" for algorithm \"mis\"","status":400,"request_id":"pin-0001"}`},
		{ts, "", "/label/coloring?v=1&u=2", 400, `{"error":"unknown query parameter \"u\" for algorithm \"coloring\"","status":400,"request_id":"pin-0001"}`},
		{tsCapped, "tiny", "/vertex/mis?v=7", 429, `{"error":"per-query probe budget 1 exhausted; narrow the query or raise the tenant budget","status":429,"request_id":"pin-0001"}`},
		{ts, "", "/estimate/mis?samples=50", 200, `{"algo":"mis","kind":"vertex","fraction":0.24,"error_bound":0.19206455826398416,"samples":50}`},
		{ts, "", "/estimate/mis?samples=50&prefetch=1", 200, `{"algo":"mis","kind":"vertex","fraction":0.24,"error_bound":0.19206455826398416,"samples":50}`},
		{ts, "", "/estimate/spanner3?samples=50", 200, `{"algo":"spanner3","kind":"edge","fraction":1,"error_bound":0.19206455826398416,"samples":50}`},
		{ts, "", "/estimate/nosuch?samples=10", 404, `{"error":"unknown algorithm \"nosuch\" (see /algos)","status":404,"request_id":"pin-0001"}`},
		{ts, "", "/estimate/coloring?samples=10", 404, `{"error":"algorithm \"coloring\" answers label queries; fractions are estimable for edge and vertex kinds","status":404,"request_id":"pin-0001"}`},
		{ts, "", "/estimate/mis?samples=-3", 400, `{"error":"parameter \"samples\": \"-3\" is not an integer in [1,1000000]","status":400,"request_id":"pin-0001"}`},
		{ts, "", "/estimate/mis?samples=zebra", 400, `{"error":"parameter \"samples\": \"zebra\" is not an integer in [1,1000000]","status":400,"request_id":"pin-0001"}`},
		{ts, "", "/estimate/mis?samples=10&w=3", 400, `{"error":"unknown query parameter \"w\" for algorithm \"mis\"","status":400,"request_id":"pin-0001"}`},
		{ts, "", "/estimate/coloring?samples=zebra", 404, `{"error":"algorithm \"coloring\" answers label queries; fractions are estimable for edge and vertex kinds","status":404,"request_id":"pin-0001"}`},
		{tsCapped, "tiny", "/estimate/mis?samples=50", 429, `{"error":"per-query probe budget 1 exhausted; narrow the query or raise the tenant budget","status":429,"request_id":"pin-0001"}`},
	}
	for _, c := range cases {
		status, body := pinGet(t, c.ts, c.path, c.token)
		if status != c.status || body != c.body+"\n" {
			t.Errorf("GET %s: %d %s\nwant %d %s", c.path, status, body, c.status, c.body)
		}
	}
}

// TestFailingParamErrorStable: a request with several failing
// parameters gets the same 400 every time, naming the key that sorts
// first, however the query map happens to order its keys.
func TestFailingParamErrorStable(t *testing.T) {
	ts := httptest.NewServer(New(gen.Gnp(200, 0.1, 7), 42).Handler())
	defer ts.Close()
	const want = `{"error":"unknown query parameter \"u\" for algorithm \"mis\"","status":400,"request_id":"pin-0001"}` + "\n"
	bodies := map[string]int{}
	for i := 0; i < 200; i++ {
		status, body := pinGet(t, ts, "/vertex/mis?v=1&u=2&w=3", "")
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", status, body)
		}
		bodies[body]++
	}
	if len(bodies) != 1 || bodies[want] != 200 {
		t.Fatalf("200 identical requests got %d bodies %v, want only %s", len(bodies), bodies, want)
	}
}

// TestAuditLogPinned: one client's edge, vertex and label queries over
// ring:n=60, plain and with prefetch=1, write the checked-in log byte for
// byte (records carry no timestamps), and that log replays.
func TestAuditLogPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/audit_ring60.log")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	srv := NewFromSource(source.Ring(60), "ring:n=60", 42, WithAuditLog(&buf, "audit-secret"))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, prefetch := range []string{"", "&prefetch=1"} {
		for _, path := range []string{"/edge/spanner3?u=3&v=4", "/vertex/mis?v=7", "/label/coloring?v=9"} {
			if status, body := pinGet(t, ts, path+prefetch, ""); status != 200 {
				t.Fatalf("GET %s: %d %s", path+prefetch, status, body)
			}
		}
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("audit log drifted from testdata/audit_ring60.log:\n%s", buf.Bytes())
	}
	rep, err := ReplayAuditLog(bytes.NewReader(want), "audit-secret")
	if err != nil {
		t.Fatalf("replaying the checked-in log: %v", err)
	}
	if rep.Records != 6 {
		t.Fatalf("replayed %d records, want 6", rep.Records)
	}
}
