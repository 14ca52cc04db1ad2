package source

// Tests for the self-tuning transport pieces: the rolling latency sketch,
// adaptive hedge delays, the hedge=adaptive spec grammar, deterministic
// revival scheduling through the injected timing seams, and the rowfull
// wire op end to end (handler, Remote, Sharded).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLatencySketchQuantiles(t *testing.T) {
	var ls latencySketch
	if _, ok := ls.quantile(0.95); ok {
		t.Fatal("empty sketch reported a quantile")
	}
	for i := 0; i < latencyMinSamples-1; i++ {
		ls.observe(time.Millisecond)
	}
	if _, ok := ls.quantile(0.95); ok {
		t.Fatalf("sketch reported a quantile below %d samples", latencyMinSamples)
	}
	ls.observe(time.Millisecond)
	q, ok := ls.quantile(0.95)
	if !ok {
		t.Fatal("sketch with enough samples reported not-ready")
	}
	// Buckets are powers of two of a microsecond; 1ms lands in (512us,
	// 1024us] and the sketch reports the conservative upper bound.
	if q != 1024*time.Microsecond {
		t.Fatalf("uniform 1ms sketch p95 = %v, want 1.024ms (bucket upper bound)", q)
	}
}

func TestLatencySketchTracksTail(t *testing.T) {
	var ls latencySketch
	for i := 0; i < 90; i++ {
		ls.observe(time.Millisecond)
	}
	for i := 0; i < 30; i++ {
		ls.observe(50 * time.Millisecond)
	}
	q, ok := ls.quantile(0.95)
	if !ok {
		t.Fatal("sketch reported not-ready")
	}
	// 25% of the mass sits at 50ms, so the p95 must be in its bucket
	// ((32.768ms, 65.536ms]), not the 1ms body.
	if q != 65536*time.Microsecond {
		t.Fatalf("heavy-tail p95 = %v, want 65.536ms", q)
	}
}

func TestLatencySketchHalvingKeepsWorking(t *testing.T) {
	var ls latencySketch
	for i := 0; i < 4*latencyWindow; i++ {
		ls.observe(2 * time.Millisecond)
	}
	if got := ls.samples(); got >= latencyWindow {
		t.Fatalf("sketch holds %d samples after halving, want under %d", got, latencyWindow)
	}
	q, ok := ls.quantile(0.95)
	if !ok {
		t.Fatal("halved sketch reported not-ready")
	}
	if q != 2048*time.Microsecond {
		t.Fatalf("post-halving p95 = %v, want 2.048ms", q)
	}
}

func TestAdaptiveHedgeDelay(t *testing.T) {
	src, err := NewSharded([]Source{Ring(40), Ring(40)},
		WithAdaptiveHedge(2*time.Millisecond, 40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	s := src.(*Sharded)
	defer s.Close()
	// Cold shard: no latency estimate yet, so hedge at the ceiling — the
	// conservative end, never an eager hedge off no data.
	if got := s.hedgeDelay(0); got != 40*time.Millisecond {
		t.Fatalf("cold hedge delay = %v, want the 40ms ceiling", got)
	}
	// A consistently fast shard clamps to the floor, not below it.
	for i := 0; i < 100; i++ {
		s.noteLatency(0, time.Millisecond)
	}
	if got := s.hedgeDelay(0); got != 2*time.Millisecond {
		t.Fatalf("fast-shard hedge delay = %v, want the 2ms floor", got)
	}
	// A mid-range tail hedges at its p95 bucket bound.
	for i := 0; i < 100; i++ {
		s.noteLatency(1, 10*time.Millisecond)
	}
	if got := s.hedgeDelay(1); got != 16384*time.Microsecond {
		t.Fatalf("10ms-shard hedge delay = %v, want 16.384ms (p95 bucket bound)", got)
	}
	// A degrading shard saturates at the ceiling.
	for i := 0; i < 300; i++ {
		s.noteLatency(1, 100*time.Millisecond)
	}
	if got := s.hedgeDelay(1); got != 40*time.Millisecond {
		t.Fatalf("slow-shard hedge delay = %v, want the 40ms ceiling", got)
	}
}

func TestAdaptiveHedgeSpec(t *testing.T) {
	src, err := Parse("sharded:ring:n=25;ring:n=25;hedge=adaptive", 7)
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := src.(*Sharded)
	if !ok {
		t.Fatalf("sharded spec yielded %T", src)
	}
	if !sh.adaptiveHedge {
		t.Fatal("hedge=adaptive did not enable adaptive hedging")
	}
	if sh.hedgeFloor != DefaultHedgeFloor || sh.hedgeCeil != DefaultHedgeCeil {
		t.Fatalf("default bounds = [%v, %v], want [%v, %v]",
			sh.hedgeFloor, sh.hedgeCeil, DefaultHedgeFloor, DefaultHedgeCeil)
	}
	if sh.Degree(3) != 2 {
		t.Fatal("adaptive-hedged fleet does not answer")
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	src, err = Parse("sharded:ring:n=25;ring:n=25;hedge=adaptive;hedgefloor=2ms;hedgeceil=20ms", 7)
	if err != nil {
		t.Fatal(err)
	}
	sh = src.(*Sharded)
	if sh.hedgeFloor != 2*time.Millisecond || sh.hedgeCeil != 20*time.Millisecond {
		t.Fatalf("bounds = [%v, %v], want [2ms, 20ms]", sh.hedgeFloor, sh.hedgeCeil)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	for spec, token := range map[string]string{
		"sharded:ring:n=5;ring:n=5;hedgefloor=2ms":                "hedge=adaptive",
		"sharded:ring:n=5;ring:n=5;hedgeceil=20ms":                "hedge=adaptive",
		"sharded:ring:n=5;ring:n=5;hedge=10ms;hedgefloor=2ms":     "hedge=adaptive",
		"sharded:ring:n=5;ring:n=5;hedge=adaptive;hedgefloor=xyz": "hedge floor",
		"sharded:ring:n=5;ring:n=5;hedge=adaptive;hedgeceil=0s":   "hedge ceiling",
		"sharded:ring:n=5;ring:n=5;hedge=adaptive;hedgefloor=2h":  "hedge floor",
	} {
		if _, err := Parse(spec, 7); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", spec)
		} else if !strings.Contains(err.Error(), token) {
			t.Errorf("Parse(%q) error %q does not name %q", spec, err, token)
		}
	}
}

// TestRevivalDeterministic drives the reviver through its injected timing
// seams: with a fixed jitter rule and a channel-stepped sleeper, the
// backoff schedule is exactly reproducible — no wall-clock sleeps, no
// global PRNG.
func TestRevivalDeterministic(t *testing.T) {
	src, inj := faultFleetFactory(2)(t)
	defer closeConformance(t, src)
	sh := src.(*Sharded)
	sleeps := make(chan time.Duration)
	step := make(chan bool)
	// Injected before any failure, so the reviver (spawned on the
	// dead-marking) observes the seams.
	sh.reviveSleep = func(d time.Duration) bool { sleeps <- d; return <-step }
	sh.reviveJitter = func(backoff time.Duration) time.Duration { return backoff / 2 }

	inj.Fail(0)
	// Drive probes until the failure threshold marks the shard dead;
	// failover keeps them answering throughout. The reviver's first sleep
	// request proves the marking, so the test halts the prober there and
	// waits for it: a prober whose health checks missed the dead window
	// would otherwise probe on past the shard servers' shutdown.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	halt := func() {
		once.Do(func() { close(stop) })
		wg.Wait()
	}
	defer halt()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("probing the failing fleet panicked: %v", r)
			}
		}()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if h, _ := HealthOf(sh); h[0].State == ShardDead {
				return
			}
			sh.Degree(i % sh.N())
		}
	}()

	// The factory configures WithRevival(10ms, 100ms) and our jitter adds
	// backoff/2: the reviver must request exactly this doubling-then-
	// clamped schedule while the shard keeps failing its pings.
	want := []time.Duration{
		15 * time.Millisecond,  // 10 + 5
		30 * time.Millisecond,  // 20 + 10
		60 * time.Millisecond,  // 40 + 20
		120 * time.Millisecond, // 80 + 40
		150 * time.Millisecond, // clamped at 100, + 50
		150 * time.Millisecond, // stays clamped
	}
	for k, w := range want {
		select {
		case got := <-sleeps:
			if got != w {
				t.Fatalf("revival sleep %d = %v, want %v", k, got, w)
			}
		case <-time.After(faultDeadline):
			t.Fatalf("reviver never requested sleep %d", k)
		}
		if k == 0 {
			halt()
		}
		if k == len(want)-1 {
			// Heal before releasing the last sleep: its ping succeeds and
			// the reviver exits without another request.
			inj.Heal(0)
		}
		step <- true
	}
	waitShardState(t, src, 0, ShardLive, "after deterministic revival")
	select {
	case d := <-sleeps:
		t.Fatalf("reviver requested another sleep (%v) after reviving", d)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestRowFullWireScalar(t *testing.T) {
	ts := newShard(t, Ring(30))
	resp, err := http.Get(ts.URL + "/probe?op=rowfull&a=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rowfull status %d", resp.StatusCode)
	}
	var ans struct {
		Answer int   `json:"answer"`
		Row    []int `json:"row"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		t.Fatal(err)
	}
	if ans.Answer != 2 || len(ans.Row) != 2 {
		t.Fatalf("rowfull answered degree %d row %v, want degree 2", ans.Answer, ans.Row)
	}
	if ans.Row[0] != 2 || ans.Row[1] != 4 {
		t.Fatalf("rowfull row = %v, want [2 4] (ring neighbors of 3)", ans.Row)
	}

	// Out-of-range vertex: the same 400 contract as the scalar ops.
	resp, err = http.Get(ts.URL + "/probe?op=rowfull&a=999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range rowfull status %d, want 400", resp.StatusCode)
	}
}

// TestRowFullWireBatch: a POST batch of rowfull probes answers each
// vertex's degree and row, index-aligned, and a batch holding any other
// op is a 400 naming rowfull, refused before any probe is answered.
func TestRowFullWireBatch(t *testing.T) {
	src := &countingSource{Source: Ring(30)}
	ts := newShard(t, src)
	status, body := postProbes(t, ts.URL, `{"probes":[{"op":"rowfull","a":5},{"op":"rowfull","a":0}]}`)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var out struct {
		Answers []int   `json:"answers"`
		Rows    [][]int `json:"rows"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out.Answers) != "[2 2]" || fmt.Sprint(out.Rows) != "[[4 6] [1 29]]" {
		t.Fatalf("batch answered %v with rows %v, want [2 2] with [[4 6] [1 29]]", out.Answers, out.Rows)
	}
	for _, op := range []string{OpDegree, OpNeighbor, OpAdjacency, OpRandomEdge, "nope"} {
		before := src.probes.Load()
		status, body := postProbes(t, ts.URL, `{"probes":[{"op":"rowfull","a":5},{"op":"`+op+`","a":5,"b":1}]}`)
		if status != http.StatusBadRequest || !strings.Contains(string(body), OpRowFull) {
			t.Errorf("a batch holding %s: status %d %s, want a 400 naming %s", op, status, body, OpRowFull)
		}
		if got := src.probes.Load() - before; got != 0 {
			t.Errorf("a batch holding %s was refused after %d probes were answered", op, got)
		}
	}
}

// countingSource counts the Degree and Neighbor probes it answers.
type countingSource struct {
	Source
	probes atomic.Int64
}

func (c *countingSource) Degree(v int) int { c.probes.Add(1); return c.Source.Degree(v) }

func (c *countingSource) Neighbor(v, i int) int { c.probes.Add(1); return c.Source.Neighbor(v, i) }

// postProbes POSTs a probe batch body to a shard and returns the status
// and the answer body.
func postProbes(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/probe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestRowFullMetaFlag(t *testing.T) {
	ts := newShard(t, Ring(30))
	resp, err := http.Get(ts.URL + "/probe/meta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var meta struct {
		RowFull bool `json:"row_full"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if !meta.RowFull {
		t.Fatal("local shard did not advertise row_full")
	}
}

func TestRemoteFetchRows(t *testing.T) {
	ring := Ring(30)
	r := openRemoteShard(t, ring)
	rf, ok := RowFetcherOf(r)
	if !ok {
		t.Fatal("remote over a row_full shard lacks the RowFetcher capability")
	}
	rt := r.(RoundTripCounter)
	before := rt.RoundTrips()
	rows, err := rf.FetchRows([]int{0, 7, 15})
	if err != nil {
		t.Fatal(err)
	}
	if trips := rt.RoundTrips() - before; trips != 1 {
		t.Fatalf("FetchRows(3 vertices) cost %d round trips, want 1", trips)
	}
	if len(rows) != 3 {
		t.Fatalf("FetchRows answered %d rows, want 3", len(rows))
	}
	for i, v := range []int{0, 7, 15} {
		deg := ring.Degree(v)
		if len(rows[i]) != deg {
			t.Fatalf("row %d has %d cells, want %d", v, len(rows[i]), deg)
		}
		for j, w := range rows[i] {
			if want := ring.Neighbor(v, j); w != want {
				t.Fatalf("row %d cell %d = %d, want %d", v, j, w, want)
			}
		}
	}
	if rows, err := rf.FetchRows(nil); err != nil || rows != nil {
		t.Fatalf("FetchRows(nil) = %v, %v; want nil, nil", rows, err)
	}
}

func TestShardedFetchRows(t *testing.T) {
	ring := Ring(50)
	s, err := NewSharded([]Source{
		openRemoteShard(t, Ring(50)),
		openRemoteShard(t, Ring(50)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeConformance(t, s)
	rf, ok := RowFetcherOf(s)
	if !ok {
		t.Fatal("fleet of row_full remotes lacks the RowFetcher capability")
	}
	vs := []int{3, 17, 41, 8}
	rows, err := rf.FetchRows(vs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if len(rows[i]) != ring.Degree(v) {
			t.Fatalf("row %d has %d cells, want %d", v, len(rows[i]), ring.Degree(v))
		}
		for j, w := range rows[i] {
			if want := ring.Neighbor(v, j); w != want {
				t.Fatalf("row %d cell %d = %d, want %d", v, j, w, want)
			}
		}
	}
}

// TestShardedFetchRowsGatedOnShards: every fleet fetches rows, and a
// shard without the rowfull op of its own — a local one — has its rows
// read cell by cell. One remote and one local shard serve every row.
// The name is historical (the capability was once advertised only when
// every shard had it); it is kept so the test ID stays comparable.
func TestShardedFetchRowsGatedOnShards(t *testing.T) {
	ring := Ring(50)
	s, err := NewSharded([]Source{openRemoteShard(t, Ring(50)), Ring(50)})
	if err != nil {
		t.Fatal(err)
	}
	defer closeConformance(t, s)
	rf, ok := RowFetcherOf(s)
	if !ok {
		t.Fatal("a mixed fleet lacks the RowFetcher capability")
	}
	vs := make([]int, 50)
	for v := range vs {
		vs[v] = v
	}
	rows, err := rf.FetchRows(vs)
	if err != nil {
		t.Fatal(err)
	}
	if want := assembledRows(ring, vs); fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("mixed fleet rows\n got %v\nwant %v", rows, want)
	}
	sh := s.(*Sharded)
	served := make([]bool, 2)
	for _, v := range vs {
		served[sh.shardFor(v)] = true
	}
	if !served[0] || !served[1] {
		t.Fatalf("the 50 rows did not span both shards: %v", served)
	}
}

// TestOpenRemoteRequiresRowFull: a shard whose /probe/meta lacks the
// row_full flag is refused at open, and the error names the flag.
func TestOpenRemoteRequiresRowFull(t *testing.T) {
	inner := NewProbeHandler(Ring(30))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/probe/meta" {
			_, _ = io.WriteString(w, `{"n":30,"m":30,"max_degree":2}`)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	_, err := OpenRemote(ts.URL, WithRetries(0))
	if err == nil || !strings.Contains(err.Error(), "row_full") {
		t.Fatalf("OpenRemote against a shard without row_full: %v, want an error naming row_full", err)
	}
}
