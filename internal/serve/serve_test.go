package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"lca/internal/gen"
	"lca/internal/source"
)

func newTestServer(t *testing.T) (*httptest.Server, func()) {
	t.Helper()
	g := gen.Gnp(200, 0.1, 7)
	ts := httptest.NewServer(New(g, 42).Handler())
	return ts, ts.Close
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestHealthAndGraph(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}
	var info graphInfo
	if code := getJSON(t, ts.URL+"/graph", &info); code != 200 || info.N != 200 || info.M == 0 {
		t.Fatalf("graph info: %d %+v", code, info)
	}
}

func TestAlgosDiscovery(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	var algos []algoInfo
	if code := getJSON(t, ts.URL+"/algos", &algos); code != 200 {
		t.Fatalf("algos: status %d", code)
	}
	byName := map[string]algoInfo{}
	for _, a := range algos {
		byName[a.Name] = a
	}
	for name, kind := range map[string]string{
		"spanner3": "edge", "spanner5": "edge", "spannerk": "edge",
		"matching": "edge", "mis": "vertex", "vertexcover": "vertex",
		"coloring": "label",
	} {
		a, ok := byName[name]
		if !ok {
			t.Errorf("algorithm %q missing from /algos", name)
			continue
		}
		if a.Kind != kind {
			t.Errorf("%s: kind %q, want %q", name, a.Kind, kind)
		}
	}
	if k := byName["spannerk"]; len(k.Params) == 0 {
		t.Error("spannerk lists no parameters")
	}
}

// TestEveryAlgoQueryable drives each /algos entry through its kind's
// endpoint: a registry entry must be queryable with zero serve-side edits.
func TestEveryAlgoQueryable(t *testing.T) {
	g := gen.Gnp(120, 0.1, 7)
	ts := httptest.NewServer(New(g, 42).Handler())
	defer ts.Close()
	var algos []algoInfo
	if code := getJSON(t, ts.URL+"/algos", &algos); code != 200 {
		t.Fatalf("algos: status %d", code)
	}
	if len(algos) < 7 {
		t.Fatalf("only %d algorithms registered", len(algos))
	}
	e := g.Edges()[0]
	for _, a := range algos {
		var url string
		switch a.Kind {
		case "edge":
			url = fmt.Sprintf("%s/edge/%s?u=%d&v=%d", ts.URL, a.Name, e.U, e.V)
		case "vertex":
			url = fmt.Sprintf("%s/vertex/%s?v=3", ts.URL, a.Name)
		case "label":
			url = fmt.Sprintf("%s/label/%s?v=3", ts.URL, a.Name)
		default:
			t.Errorf("%s: unknown kind %q", a.Name, a.Kind)
			continue
		}
		var ans map[string]any
		if code := getJSON(t, url, &ans); code != 200 {
			t.Errorf("%s: status %d (%v)", a.Name, code, ans)
		}
	}
}

func TestEdgeEndpoint(t *testing.T) {
	g := gen.Gnp(200, 0.1, 7)
	ts := httptest.NewServer(New(g, 42).Handler())
	defer ts.Close()
	e := g.Edges()[0]
	var ans edgeAnswer
	url := fmt.Sprintf("%s/edge/spanner3?u=%d&v=%d", ts.URL, e.U, e.V)
	if code := getJSON(t, url, &ans); code != 200 {
		t.Fatalf("status %d", code)
	}
	if *ans.U != e.U || ans.V != e.V || ans.Probes == 0 || ans.Algo != "spanner3" {
		t.Fatalf("answer %+v", ans)
	}
	// Consistency across requests (fresh instances, same seed).
	var again edgeAnswer
	getJSON(t, url, &again)
	if *again.In != *ans.In {
		t.Fatal("two requests for the same edge disagreed")
	}
	// Aliases resolve to the same algorithm.
	var aliased edgeAnswer
	if code := getJSON(t, fmt.Sprintf("%s/edge/3?u=%d&v=%d", ts.URL, e.U, e.V), &aliased); code != 200 {
		t.Fatalf("alias status %d", code)
	}
	if *aliased.In != *ans.In || aliased.Algo != "spanner3" {
		t.Fatalf("alias answer %+v, want consistent with %+v", aliased, ans)
	}
}

func TestEndpointErrors(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	cases := []struct {
		path string
		want int
	}{
		{"/edge/nosuch?u=0&v=1", 404},           // unknown algorithm
		{"/edge/mis?u=0&v=1", 404},              // kind mismatch: mis is vertex-kind
		{"/edge/spanner3?u=0", 400},             // missing v
		{"/edge/spanner3?u=0&v=betty", 400},     // non-numeric vertex
		{"/edge/spanner3?u=0&v=99999", 400},     // out of range
		{"/edge/spannerk?u=0&v=1&k=zero", 400},  // malformed parameter value
		{"/edge/spannerk?u=0&v=1&k=0", 400},     // out-of-range parameter value
		{"/edge/spanner3?u=0&v=1&bogus=1", 400}, // unknown parameter
		{"/vertex/mis", 400},                    // missing v
		{"/vertex/spanner3?v=1", 404},           // kind mismatch
		{"/label/coloring?v=-1", 400},           // negative vertex
		{"/estimate/nothing?samples=10", 404},   // unknown algorithm
		{"/estimate/coloring?samples=10", 404},  // label kind not estimable
		{"/estimate/mis?samples=-3", 400},       // bad samples
		{"/estimate/mis?samples=zebra", 400},    // non-numeric samples
	}
	for _, c := range cases {
		var body errorBody
		if code := getJSON(t, ts.URL+c.path, &body); code != c.want {
			t.Errorf("%s: status %d, want %d (%+v)", c.path, code, c.want, body)
		} else if body.Error == "" || body.Status != c.want {
			t.Errorf("%s: malformed error envelope %+v", c.path, body)
		}
	}
}

func TestEdgeNotAnEdge(t *testing.T) {
	g := gen.Path(10) // (0,5) is not an edge
	ts := httptest.NewServer(New(g, 1).Handler())
	defer ts.Close()
	var body errorBody
	if code := getJSON(t, ts.URL+"/edge/spanner3?u=0&v=5", &body); code != 400 {
		t.Fatalf("non-edge query returned %d", code)
	}
}

func TestVertexAndLabelEndpoints(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	var mis vertexAnswer
	if code := getJSON(t, ts.URL+"/vertex/mis?v=5", &mis); code != 200 || mis.Algo != "mis" {
		t.Fatalf("mis: %d %+v", code, mis)
	}
	var color labelAnswer
	if code := getJSON(t, ts.URL+"/label/coloring?v=5", &color); code != 200 || *color.Label < 0 {
		t.Fatalf("coloring: %d %+v", code, color)
	}
}

func TestParamPassing(t *testing.T) {
	g := gen.Torus(12, 12)
	ts := httptest.NewServer(New(g, 5).Handler())
	defer ts.Close()
	// Same edge under different k must be answered (answers may differ;
	// both requests must succeed and be internally consistent).
	e := g.Edges()[0]
	for _, k := range []int{2, 4} {
		url := fmt.Sprintf("%s/edge/spannerk?u=%d&v=%d&k=%d", ts.URL, e.U, e.V, k)
		var ans, again edgeAnswer
		if code := getJSON(t, url, &ans); code != 200 {
			t.Fatalf("k=%d: status %d", k, code)
		}
		getJSON(t, url, &again)
		if *ans.In != *again.In {
			t.Fatalf("k=%d: inconsistent answers", k)
		}
	}
	// rounds is declared by approxmatching only.
	url := fmt.Sprintf("%s/edge/approxmatching?u=%d&v=%d&rounds=1", ts.URL, e.U, e.V)
	var ans edgeAnswer
	if code := getJSON(t, url, &ans); code != 200 {
		t.Fatalf("approxmatching: status %d", code)
	}
}

func TestMatchingEndpointConsistent(t *testing.T) {
	g := gen.Torus(8, 8)
	ts := httptest.NewServer(New(g, 3).Handler())
	defer ts.Close()
	// Query all edges incident to vertex 0; at most one can be matched.
	matched := 0
	for i := 0; i < g.Degree(0); i++ {
		w := g.Neighbor(0, i)
		var ans edgeAnswer
		getJSON(t, fmt.Sprintf("%s/edge/matching?u=0&v=%d", ts.URL, w), &ans)
		if *ans.In {
			matched++
		}
	}
	if matched > 1 {
		t.Fatalf("vertex 0 matched %d times", matched)
	}
}

func TestEstimateEndpoint(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	for _, algo := range []string{"mis", "vertexcover", "spanner3", "matching"} {
		var ans estimateAnswer
		if code := getJSON(t, ts.URL+"/estimate/"+algo+"?samples=100", &ans); code != 200 {
			t.Fatalf("%s: status %d", algo, code)
		}
		if ans.Fraction < 0 || ans.Fraction > 1 || ans.Samples != 100 {
			t.Fatalf("%s: %+v", algo, ans)
		}
	}
}

func TestConcurrentRequestsConsistent(t *testing.T) {
	g := gen.Gnp(150, 0.15, 9)
	ts := httptest.NewServer(New(g, 11).Handler())
	defer ts.Close()
	e := g.Edges()[3]
	url := fmt.Sprintf("%s/edge/spanner3?u=%d&v=%d", ts.URL, e.U, e.V)
	const goroutines = 16
	answers := make([]bool, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var ans edgeAnswer
			if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
				t.Error(err)
				return
			}
			answers[i] = *ans.In
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if answers[i] != answers[0] {
			t.Fatal("concurrent requests disagreed on the same edge")
		}
	}
}

// TestOpenSourceBySpec drives the open-by-spec endpoint: open an implicit
// billion-vertex ring, list it, query it by name — all against a server
// started on an ordinary in-memory graph.
func TestOpenSourceBySpec(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()

	resp, err := http.Post(ts.URL+"/sources?name=big&spec=ring:n=1e9", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var opened sourceInfo
	if err := json.NewDecoder(resp.Body).Decode(&opened); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || opened.N != 1_000_000_000 {
		t.Fatalf("open: %d %+v", resp.StatusCode, opened)
	}

	// Duplicate name conflicts.
	resp, err = http.Post(ts.URL+"/sources?name=big&spec=ring:n=10", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate open: status %d, want 409", resp.StatusCode)
	}

	// Bad specs are 400s.
	resp, err = http.Post(ts.URL+"/sources?name=x&spec=warp:n=10", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d, want 400", resp.StatusCode)
	}

	var listing sourcesBody
	if code := getJSON(t, ts.URL+"/sources", &listing); code != 200 {
		t.Fatalf("/sources: status %d", code)
	}
	if len(listing.Sources) != 2 || len(listing.Families) == 0 {
		t.Fatalf("/sources listing: %+v", listing)
	}

	// Point queries against the opened source, deep inside the ring.
	var va vertexAnswer
	if code := getJSON(t, ts.URL+"/vertex/mis?v=123456789&source=big", &va); code != 200 {
		t.Fatalf("vertex query on named source: status %d", code)
	}
	var ea edgeAnswer
	if code := getJSON(t, ts.URL+"/edge/matching?u=123456789&v=123456790&source=big", &ea); code != 200 {
		t.Fatalf("edge query on named source: status %d", code)
	}
	// The ring has O(1) summaries, so /graph answers even at n=1e9.
	var info graphInfo
	if code := getJSON(t, ts.URL+"/graph?source=big", &info); code != 200 || info.M != 1_000_000_000 || info.MaxDegree != 2 {
		t.Fatalf("/graph on ring: %d %+v", code, info)
	}
	// Unknown source names are 404s.
	var e errorBody
	if code := getJSON(t, ts.URL+"/vertex/mis?v=1&source=nope", &e); code != 404 {
		t.Fatalf("unknown source: status %d", code)
	}
}

// TestGraphInfoCap413 pins the /graph guard: a source with no O(1)
// summaries above the cap answers 413 with the JSON envelope instead of
// walking n degrees.
func TestGraphInfoCap413(t *testing.T) {
	src, err := source.Parse("blockrandom:n=1e8,d=6", 7)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewFromSource(src, "blockrandom:n=1e8,d=6", 42, WithGraphInfoCap(10_000)).Handler())
	defer ts.Close()

	var e errorBody
	if code := getJSON(t, ts.URL+"/graph", &e); code != http.StatusRequestEntityTooLarge || e.Status != http.StatusRequestEntityTooLarge || e.Error == "" {
		t.Fatalf("/graph above cap: %d %+v, want 413 envelope", code, e)
	}
	// Point queries still work — that is the whole point.
	var va vertexAnswer
	if code := getJSON(t, ts.URL+"/vertex/mis?v=99999999", &va); code != 200 {
		t.Fatalf("vertex query above cap: status %d", code)
	}

	// Under the cap, probing summaries is allowed.
	small, err := source.Parse("blockrandom:n=500,d=4", 7)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(NewFromSource(small, "blockrandom:n=500,d=4", 42, WithGraphInfoCap(10_000)).Handler())
	defer ts2.Close()
	var info graphInfo
	if code := getJSON(t, ts2.URL+"/graph", &info); code != 200 || info.N != 500 || info.M == 0 || info.MaxDegree == 0 {
		t.Fatalf("/graph under cap: %d %+v", code, info)
	}
}

// TestEstimateOnImplicitSource checks /estimate works against an implicit
// source via its RandomEdge capability.
func TestEstimateOnImplicitSource(t *testing.T) {
	src, err := source.Parse("circulant:n=100000,d=8", 7)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewFromSource(src, "circulant:n=100000,d=8", 42).Handler())
	defer ts.Close()
	var ans estimateAnswer
	if code := getJSON(t, ts.URL+"/estimate/matching?samples=200", &ans); code != 200 {
		t.Fatalf("/estimate on circulant: status %d", code)
	}
	if ans.Fraction <= 0 || ans.Fraction > 1 {
		t.Fatalf("estimate fraction %v out of range", ans.Fraction)
	}
}

func TestPrefetchQueryParam(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	// prefetch=1 answers identically to the scalar path (same instance
	// seed, same solution) and reports zero round trips on a local source.
	var plain, pre vertexAnswer
	if code := getJSON(t, ts.URL+"/vertex/mis?v=7", &plain); code != 200 {
		t.Fatalf("scalar vertex query: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/vertex/mis?v=7&prefetch=1", &pre); code != 200 {
		t.Fatalf("prefetch vertex query: status %d", code)
	}
	if *plain.In != *pre.In || plain.Probes != pre.Probes {
		t.Fatalf("prefetch changed the answer or probe count: %+v vs %+v", plain, pre)
	}
	if pre.RoundTrips != 0 {
		t.Fatalf("local source reported %d round trips", pre.RoundTrips)
	}
	var envelope errorBody
	if code := getJSON(t, ts.URL+"/vertex/mis?v=7&prefetch=2", &envelope); code != 400 {
		t.Fatalf("malformed prefetch flag: status %d, want 400", code)
	}
}

func TestPrefetchOverNetworkSourceReportsRoundTrips(t *testing.T) {
	// A server fronting a remote source: prefetch=1 must collapse the
	// round trips the query answer reports.
	backing, err := source.Parse("circulant:n=2000,d=8,seed=3", 7)
	if err != nil {
		t.Fatal(err)
	}
	shard := httptest.NewServer(source.NewProbeHandler(backing))
	defer shard.Close()
	remote, err := source.Parse("remote:"+shard.URL, 7)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewFromSource(remote, "remote", 42).Handler())
	defer ts.Close()
	var plain, pre vertexAnswer
	if code := getJSON(t, ts.URL+"/vertex/mis?v=11", &plain); code != 200 {
		t.Fatalf("scalar: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/vertex/mis?v=11&prefetch=1", &pre); code != 200 {
		t.Fatalf("prefetch: status %d", code)
	}
	if *plain.In != *pre.In || plain.Probes != pre.Probes {
		t.Fatalf("prefetch changed answer/probes over the network: %+v vs %+v", plain, pre)
	}
	if plain.RoundTrips == 0 || pre.RoundTrips == 0 {
		t.Fatalf("network queries reported no round trips: %+v vs %+v", plain, pre)
	}
	if pre.RoundTrips*3 > plain.RoundTrips {
		t.Fatalf("prefetch round trips %d vs scalar %d: want at least a 3x collapse", pre.RoundTrips, plain.RoundTrips)
	}
}
