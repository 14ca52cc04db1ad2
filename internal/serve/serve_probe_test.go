package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"lca/internal/gen"
	"lca/internal/source"
)

// TestProbeEndpoints drives the probe wire protocol as mounted on the
// query server: any lcaserve instance doubles as a shard.
func TestProbeEndpoints(t *testing.T) {
	g := gen.Gnp(80, 0.1, 7)
	ts := httptest.NewServer(New(g, 42).Handler())
	defer ts.Close()

	var meta struct {
		N         int  `json:"n"`
		M         *int `json:"m"`
		MaxDegree *int `json:"max_degree"`
	}
	if code := getJSON(t, ts.URL+"/probe/meta", &meta); code != 200 {
		t.Fatalf("probe/meta: status %d", code)
	}
	if meta.N != 80 || meta.M == nil || *meta.M != g.M() || meta.MaxDegree == nil || *meta.MaxDegree != g.MaxDegree() {
		t.Fatalf("probe/meta = %+v, want n=80 m=%d maxdeg=%d", meta, g.M(), g.MaxDegree())
	}

	var ans struct {
		Answer int `json:"answer"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/probe?op=degree&a=5", ts.URL), &ans); code != 200 || ans.Answer != g.Degree(5) {
		t.Fatalf("probe degree: %d %+v, want %d", code, ans, g.Degree(5))
	}
	w := g.Neighbor(5, 0)
	if code := getJSON(t, fmt.Sprintf("%s/probe?op=neighbor&a=5&b=0", ts.URL), &ans); code != 200 || ans.Answer != w {
		t.Fatalf("probe neighbor: %d %+v, want %d", code, ans, w)
	}
	if code := getJSON(t, fmt.Sprintf("%s/probe?op=adjacency&a=5&b=%d", ts.URL, w), &ans); code != 200 || ans.Answer != 0 {
		t.Fatalf("probe adjacency: %d %+v, want 0", code, ans)
	}

	// Error envelope on protocol violations.
	var e errorBody
	if code := getJSON(t, ts.URL+"/probe?op=warp&a=1", &e); code != 400 || e.Status != 400 {
		t.Fatalf("unknown op: %d %+v", code, e)
	}
	if code := getJSON(t, ts.URL+"/probe?op=degree&a=999", &e); code != 400 {
		t.Fatalf("out-of-range vertex: %d %+v", code, e)
	}
	if code := getJSON(t, ts.URL+"/probe?op=degree&a=x", &e); code != 400 {
		t.Fatalf("non-integer vertex: %d %+v", code, e)
	}
	// A forgotten neighbor index must 400, not silently read as b=0.
	if code := getJSON(t, ts.URL+"/probe?op=neighbor&a=5", &e); code != 400 {
		t.Fatalf("neighbor without b: %d %+v", code, e)
	}
	if code := getJSON(t, ts.URL+"/probe?op=adjacency&a=5", &e); code != 400 {
		t.Fatalf("adjacency without b: %d %+v", code, e)
	}
	if code := getJSON(t, ts.URL+"/probe?op=degree&a=1&source=nope", &e); code != 404 {
		t.Fatalf("unknown source: %d %+v", code, e)
	}
}

// TestProbeBatchEndpoint checks the batched POST form: rowfull probes
// answered index-aligned, any other op refused before anything is
// answered, and malformed bodies refused.
func TestProbeBatchEndpoint(t *testing.T) {
	g := gen.Gnp(60, 0.1, 3)
	ts := httptest.NewServer(New(g, 42).Handler())
	defer ts.Close()
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/probe", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	var out struct {
		Answers []int   `json:"answers"`
		Rows    [][]int `json:"rows"`
	}
	if err := jsonDecode(post(`{"probes":[{"op":"rowfull","a":5},{"op":"rowfull","a":0},{"op":"rowfull","a":5}]}`), &out); err != nil {
		t.Fatal(err)
	}
	vs := []int{5, 0, 5}
	if len(out.Answers) != len(vs) || len(out.Rows) != len(vs) {
		t.Fatalf("%d answers and %d rows for %d probes", len(out.Answers), len(out.Rows), len(vs))
	}
	for i, v := range vs {
		if out.Answers[i] != g.Degree(v) || len(out.Rows[i]) != g.Degree(v) {
			t.Fatalf("probe %d: degree %d with a %d-cell row, want %d", i, out.Answers[i], len(out.Rows[i]), g.Degree(v))
		}
		for j, w := range out.Rows[i] {
			if w != g.Neighbor(v, j) {
				t.Fatalf("probe %d: cell %d = %d, want %d", i, j, w, g.Neighbor(v, j))
			}
		}
	}
	var e errorBody
	resp := post(`{"probes":[{"op":"rowfull","a":5},{"op":"degree","a":5}]}`)
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 || !strings.Contains(e.Error, "rowfull") {
		t.Fatalf("a degree probe in a batch: status %d %q, want a 400 naming rowfull", resp.StatusCode, e.Error)
	}
	resp = post("{nope")
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed batch: status %d, want 400", resp.StatusCode)
	}
}

// TestServeAsShardEndToEnd is the serve-side acceptance loop: a second
// server's queries probe the first over HTTP via a remote: spec, and the
// answers match querying the backing source directly — replicas sharing
// a seed serve one consistent solution regardless of where probes land.
func TestServeAsShardEndToEnd(t *testing.T) {
	backing, err := source.Parse("circulant:n=400,d=6", 7)
	if err != nil {
		t.Fatal(err)
	}
	shard := httptest.NewServer(NewFromSource(backing, "circulant:n=400,d=6", 42).Handler())
	defer shard.Close()

	front := NewFromSource(mustParse(t, "remote:"+shard.URL), "remote", 42)
	defer front.Close()
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()

	direct := httptest.NewServer(NewFromSource(backing, "direct", 42).Handler())
	defer direct.Close()

	for v := 0; v < 40; v += 7 {
		var remoteAns, directAns vertexAnswer
		if code := getJSON(t, fmt.Sprintf("%s/vertex/mis?v=%d", fts.URL, v), &remoteAns); code != 200 {
			t.Fatalf("remote-backed query v=%d: status %d", v, code)
		}
		if code := getJSON(t, fmt.Sprintf("%s/vertex/mis?v=%d", direct.URL, v), &directAns); code != 200 {
			t.Fatalf("direct query v=%d: status %d", v, code)
		}
		if *remoteAns.In != *directAns.In {
			t.Fatalf("v=%d: remote-backed answer %v != direct answer %v", v, *remoteAns.In, *directAns.In)
		}
		if remoteAns.Probes != directAns.Probes {
			t.Fatalf("v=%d: remote probing cost %d probes, direct %d — the protocol must be transparent",
				v, remoteAns.Probes, directAns.Probes)
		}
	}
}

// TestRemoteShardDown502 pins the failure mode: when the shard behind a
// remote source disappears, queries answer 502 envelopes, not crashed
// connections.
func TestRemoteShardDown502(t *testing.T) {
	backing := source.Ring(100)
	shard := httptest.NewServer(source.NewProbeHandler(backing))
	remote, err := source.OpenRemote(shard.URL, source.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	front := NewFromSource(remote, "remote", 42)
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()
	shard.Close() // the fleet loses its shard

	var e errorBody
	if code := getJSON(t, fts.URL+"/vertex/mis?v=5", &e); code != http.StatusBadGateway {
		t.Fatalf("query over a dead shard: status %d (%+v), want 502", code, e)
	}
}

// TestServerClose verifies teardown reaches every named source.
func TestServerClose(t *testing.T) {
	s := NewFromSource(source.Ring(10), "ring:n=10", 42)
	ts := httptest.NewServer(s.Handler())
	u := fmt.Sprintf("%s/sources?name=extra&spec=%s", ts.URL, url.QueryEscape("ring:n=20"))
	resp, err := http.Post(u, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("open source: status %d", resp.StatusCode)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func mustParse(t *testing.T, spec string) source.Source {
	t.Helper()
	src, err := source.Parse(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func jsonDecode(resp *http.Response, into any) error {
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
