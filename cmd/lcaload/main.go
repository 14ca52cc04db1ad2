// Command lcaload drives query load against a running lcaserve and
// reports latency quantiles, achieved throughput and probe cost — the
// serving-tier counterpart of lcabench's algorithm benchmarks. It
// exercises exactly what production sees: HTTP parsing, tenant
// admission, coalescing, oracle builds and probe sequences.
//
// Usage:
//
//	lcaload -url http://127.0.0.1:8080                          # closed loop, 8 workers, 5s
//	lcaload -url ... -qps 500 -duration 30s                     # open loop at a target rate
//	lcaload -url ... -mix '3xvertex/mis,1xlabel/coloring?colors=8'
//	lcaload -url ... -token SECRET -json > load.json            # benchgate-compatible rows
//
// -mix is a comma-separated list of weighted query templates,
// [W x] kind/algo [?extra-params]: "3xvertex/mis,1xlabel/coloring"
// sends three MIS vertex queries for every coloring query. Vertex and
// label targets are drawn uniformly from [0, n) (n discovered from
// GET /sources); edge targets are pre-sampled uniform edges via the
// probe plane's op=randomedge, so every edge query is a real edge.
//
// Closed loop (-qps 0, the default) keeps -concurrency requests in
// flight back to back and measures service latency. Open loop (-qps R)
// schedules arrivals at the target rate and measures latency from the
// *scheduled* arrival time, so queueing delay under overload is visible
// (a closed loop would hide it by slowing the arrival rate).
//
// -trace-sample N forces trace=1 on one request in N, so a load run
// doubles as a trace harvest: the server records a span tree for each
// sampled query, the answer carries its trace id, and lcaload reports
// the slowest traced query per mix entry (fetch the tree from
// GET /traces/{id} on the server while its ring still holds it).
//
// With -json, one JSON-Lines record per mix entry is written to stdout
// in lcabench's format — {"experiment":"LOAD","title":...,"row":{...}}
// — so cmd/benchgate can gate p99 regressions between runs via
// -time-metric 'p99 us/query'. The human summary always goes to stderr.
// Exit status is 1 when no query at all succeeded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lca/internal/metrics"
)

// mixEntry is one weighted query template from -mix.
type mixEntry struct {
	Weight int
	Kind   string // edge | vertex | label | estimate
	Algo   string
	Extra  string // raw extra query params ("k=4&colors=8")
}

// parseMix parses "3xvertex/mis,1xlabel/coloring?colors=8".
func parseMix(s string) ([]mixEntry, error) {
	var mix []mixEntry
	for _, raw := range strings.Split(s, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		e := mixEntry{Weight: 1}
		spec := raw
		if i := strings.Index(spec, "x"); i > 0 {
			if w, err := strconv.Atoi(spec[:i]); err == nil {
				if w <= 0 {
					return nil, fmt.Errorf("mix entry %q: weight must be positive", raw)
				}
				e.Weight, spec = w, spec[i+1:]
			}
		}
		spec, e.Extra, _ = strings.Cut(spec, "?")
		var ok bool
		e.Kind, e.Algo, ok = strings.Cut(spec, "/")
		if !ok || e.Algo == "" {
			return nil, fmt.Errorf("mix entry %q: want [WEIGHTx]kind/algo[?params]", raw)
		}
		switch e.Kind {
		case "edge", "vertex", "label", "estimate":
		default:
			return nil, fmt.Errorf("mix entry %q: unknown kind %q (want edge, vertex, label or estimate)", raw, e.Kind)
		}
		if e.Extra != "" {
			if _, err := url.ParseQuery(e.Extra); err != nil {
				return nil, fmt.Errorf("mix entry %q: bad extra params: %v", raw, err)
			}
		}
		mix = append(mix, e)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty -mix")
	}
	return mix, nil
}

// entryStats accumulates one mix entry's results; all fields are
// concurrency-safe.
type entryStats struct {
	queries atomic.Uint64
	errors  atomic.Uint64
	probes  atomic.Uint64
	latency *metrics.Histogram // microseconds

	mu           sync.Mutex
	slowestUS    int64
	slowestTrace string
}

// noteTrace keeps the slowest traced query's id: the one trace worth
// pulling from the server after an over-threshold run.
func (st *entryStats) noteTrace(id string, us int64) {
	st.mu.Lock()
	if st.slowestTrace == "" || us > st.slowestUS {
		st.slowestUS, st.slowestTrace = us, id
	}
	st.mu.Unlock()
}

// client wraps the target server: base URL, auth, discovery and the
// pre-sampled targets every worker draws from.
type client struct {
	http    *http.Client
	base    string
	token   string
	source  string
	n       int
	edges   [][2]int
	reqSeq  atomic.Uint64
	verbose bool

	traceEvery int // -trace-sample: force trace=1 on 1 in N requests
	traceSeq   atomic.Uint64
}

func (c *client) get(path string, into any) error {
	req, err := http.NewRequest("GET", c.base+path, nil)
	if err != nil {
		return err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	req.Header.Set("X-Request-ID", fmt.Sprintf("load-%d", c.reqSeq.Add(1)))
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var envelope struct {
			Error     string `json:"error"`
			RequestID string `json:"request_id"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&envelope)
		return fmt.Errorf("%s: %d %s (request %s)", path, resp.StatusCode, envelope.Error, envelope.RequestID)
	}
	if into == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// discoverN reads n for the selected source from GET /sources.
func (c *client) discoverN() error {
	var answer struct {
		Sources []struct {
			Name string `json:"name"`
			N    int    `json:"n"`
		} `json:"sources"`
	}
	if err := c.get("/sources", &answer); err != nil {
		return fmt.Errorf("discovering sources: %w", err)
	}
	var names []string
	for _, s := range answer.Sources {
		if s.Name == c.source {
			c.n = s.N
			return nil
		}
		names = append(names, fmt.Sprintf("%q", s.Name))
	}
	return fmt.Errorf("source %q not served (have %s)", c.source, strings.Join(names, ", "))
}

// sampleEdges pre-draws uniform edges through the probe plane so edge
// queries always target real edges.
func (c *client) sampleEdges(count int, seed uint64) error {
	c.edges = make([][2]int, 0, count)
	for i := 0; i < count; i++ {
		var e struct {
			U int `json:"u"`
			V int `json:"v"`
		}
		path := fmt.Sprintf("/probe?op=randomedge&seed=%d", seed+uint64(i))
		if c.source != "" {
			path += "&source=" + url.QueryEscape(c.source)
		}
		if err := c.get(path, &e); err != nil {
			return fmt.Errorf("sampling edges: %w", err)
		}
		c.edges = append(c.edges, [2]int{e.U, e.V})
	}
	return nil
}

// buildPath renders one request for a mix entry using the worker's rng.
func (c *client) buildPath(e mixEntry, rng *rand.Rand, prefetch, traced bool) string {
	q := url.Values{}
	if e.Extra != "" {
		q, _ = url.ParseQuery(e.Extra)
	}
	switch e.Kind {
	case "vertex", "label":
		q.Set("v", strconv.Itoa(rng.Intn(c.n)))
	case "edge":
		edge := c.edges[rng.Intn(len(c.edges))]
		q.Set("u", strconv.Itoa(edge[0]))
		q.Set("v", strconv.Itoa(edge[1]))
	case "estimate":
		if q.Get("samples") == "" {
			q.Set("samples", "50")
		}
	}
	if c.source != "" {
		q.Set("source", c.source)
	}
	if prefetch {
		q.Set("prefetch", "1")
	}
	if traced {
		q.Set("trace", "1")
	}
	return "/" + e.Kind + "/" + e.Algo + "?" + q.Encode()
}

// fire issues one query and records it into st; sched is the moment the
// request was (logically) due, so open-loop latency includes queue delay.
func (c *client) fire(e mixEntry, st *entryStats, rng *rand.Rand, prefetch bool, sched time.Time) {
	traced := c.traceEvery > 0 && (c.traceSeq.Add(1)-1)%uint64(c.traceEvery) == 0
	path := c.buildPath(e, rng, prefetch, traced)
	var answer struct {
		Probes  uint64 `json:"probes"`
		TraceID string `json:"trace_id"`
	}
	err := c.get(path, &answer)
	elapsed := time.Since(sched)
	if err != nil {
		st.errors.Add(1)
		if c.verbose {
			fmt.Fprintf(os.Stderr, "lcaload: %v\n", err)
		}
		return
	}
	st.queries.Add(1)
	st.probes.Add(answer.Probes)
	st.latency.Observe(float64(elapsed.Microseconds()))
	if answer.TraceID != "" {
		st.noteTrace(answer.TraceID, elapsed.Microseconds())
	}
}

// weightedPick draws a mix entry index by weight.
func weightedPick(mix []mixEntry, total int, rng *rand.Rand) int {
	w := rng.Intn(total)
	for i, e := range mix {
		if w -= e.Weight; w < 0 {
			return i
		}
	}
	return len(mix) - 1
}

func main() {
	var (
		base        = flag.String("url", "", "base URL of the target lcaserve (required)")
		duration    = flag.Duration("duration", 5*time.Second, "how long to drive load")
		qps         = flag.Float64("qps", 0, "open-loop arrival rate; 0 = closed loop at -concurrency")
		concurrency = flag.Int("concurrency", 8, "worker count (in-flight cap)")
		mixFlag     = flag.String("mix", "vertex/mis", "weighted query mix: [Wx]kind/algo[?params],...")
		sourceFlag  = flag.String("source", "", "target source name (default source when empty)")
		prefetch    = flag.Bool("prefetch", false, "route queries through the row tier (prefetch=1)")
		token       = flag.String("token", "", "tenant token (Authorization: Bearer)")
		seed        = flag.Uint64("seed", 1, "seed for target sampling")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		edgePool    = flag.Int("edgepool", 256, "pre-sampled edge targets for edge-kind entries")
		traceEvery  = flag.Int("trace-sample", 0, "force trace=1 on 1 in N requests and report the slowest traced query (0 disables)")
		jsonOut     = flag.Bool("json", false, "emit JSON Lines on stdout (lcabench/benchgate format)")
		verbose     = flag.Bool("v", false, "log each failed request")
	)
	flag.Parse()
	if *base == "" {
		fmt.Fprintln(os.Stderr, "lcaload: -url is required")
		os.Exit(2)
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lcaload: %v\n", err)
		os.Exit(2)
	}
	c := &client{
		http:    &http.Client{Timeout: *timeout},
		base:    strings.TrimRight(*base, "/"),
		token:   *token,
		source:  *sourceFlag,
		verbose: *verbose,

		traceEvery: *traceEvery,
	}
	if err := c.discoverN(); err != nil {
		fmt.Fprintf(os.Stderr, "lcaload: %v\n", err)
		os.Exit(1)
	}
	needEdges := false
	totalWeight := 0
	for _, e := range mix {
		totalWeight += e.Weight
		needEdges = needEdges || e.Kind == "edge"
	}
	if needEdges {
		if err := c.sampleEdges(*edgePool, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "lcaload: %v\n", err)
			os.Exit(1)
		}
	}
	stats := make([]*entryStats, len(mix))
	for i := range stats {
		stats[i] = &entryStats{latency: metrics.NewHistogram(metrics.LatencyBucketsUS)}
	}

	mode := fmt.Sprintf("closed loop, %d workers", *concurrency)
	if *qps > 0 {
		mode = fmt.Sprintf("open loop, %.4g qps target, %d workers", *qps, *concurrency)
	}
	fmt.Fprintf(os.Stderr, "lcaload: %s against %s (n=%d, source=%q) for %s\n",
		mode, c.base, c.n, c.source, *duration)

	start := time.Now()
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	if *qps <= 0 {
		// Closed loop: each worker keeps one request in flight.
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(*seed) + int64(w)*7919))
				for time.Now().Before(deadline) {
					i := weightedPick(mix, totalWeight, rng)
					c.fire(mix[i], stats[i], rng, *prefetch, time.Now())
				}
			}(w)
		}
	} else {
		// Open loop: arrivals are scheduled at the target rate regardless
		// of completion; a full queue (all workers busy past the deadline
		// slack) counts arrivals as errors rather than slowing them down.
		sched := make(chan time.Time, *concurrency)
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(*seed) + int64(w)*7919))
				for due := range sched {
					i := weightedPick(mix, totalWeight, rng)
					c.fire(mix[i], stats[i], rng, *prefetch, due)
				}
			}(w)
		}
		interval := time.Duration(float64(time.Second) / *qps)
		for due := start; due.Before(deadline); due = due.Add(interval) {
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			sched <- due
		}
		close(sched)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var totalOK uint64
	enc := json.NewEncoder(os.Stdout)
	title := fmt.Sprintf("%s for %s", mode, elapsed.Round(10*time.Millisecond))
	if !*jsonOut {
		fmt.Printf("%-10s %-12s %8s %6s %12s %12s %10s %10s %10s %10s\n",
			"kind", "algorithm", "queries", "errors", "qps", "mean probes",
			"mean us", "p50 us", "p95 us", "p99 us")
	}
	for i, e := range mix {
		st := stats[i]
		ok := st.queries.Load()
		totalOK += ok
		snap := st.latency.Snapshot()
		meanProbes := 0.0
		if ok > 0 {
			meanProbes = float64(st.probes.Load()) / float64(ok)
		}
		achieved := float64(ok) / elapsed.Seconds()
		config := e.Extra
		if config == "" {
			config = "-"
		}
		if *prefetch {
			config += "+prefetch"
		}
		if *jsonOut {
			row := map[string]string{
				"kind":          e.Kind,
				"algorithm":     e.Algo,
				"config":        config,
				"n":             strconv.Itoa(c.n),
				"queries":       strconv.FormatUint(ok, 10),
				"errors":        strconv.FormatUint(st.errors.Load(), 10),
				"achieved qps":  fmt.Sprintf("%.1f", achieved),
				"mean probes":   fmt.Sprintf("%.1f", meanProbes),
				"mean us/query": fmt.Sprintf("%.1f", snap.Mean),
				"p50 us/query":  fmt.Sprintf("%.1f", snap.P50),
				"p95 us/query":  fmt.Sprintf("%.1f", snap.P95),
				"p99 us/query":  fmt.Sprintf("%.1f", snap.P99),
			}
			if st.slowestTrace != "" {
				row["slowest trace"] = st.slowestTrace
				row["slowest trace us"] = strconv.FormatInt(st.slowestUS, 10)
			}
			_ = enc.Encode(struct {
				Experiment string            `json:"experiment"`
				Title      string            `json:"title"`
				Row        map[string]string `json:"row"`
			}{Experiment: "LOAD", Title: title, Row: row})
		} else {
			fmt.Printf("%-10s %-12s %8d %6d %12.1f %12.1f %10.0f %10.0f %10.0f %10.0f\n",
				e.Kind, e.Algo, ok, st.errors.Load(), achieved, meanProbes,
				snap.Mean, snap.P50, snap.P95, snap.P99)
		}
	}
	var slowestID string
	var slowestUS int64
	for _, st := range stats {
		if st.slowestTrace != "" && (slowestID == "" || st.slowestUS > slowestUS) {
			slowestID, slowestUS = st.slowestTrace, st.slowestUS
		}
	}
	if slowestID != "" {
		fmt.Fprintf(os.Stderr, "lcaload: slowest traced query %d us — GET %s/traces/%s\n",
			slowestUS, c.base, slowestID)
	}
	fmt.Fprintf(os.Stderr, "lcaload: %d queries ok in %s\n", totalOK, elapsed.Round(time.Millisecond))
	if totalOK == 0 {
		fmt.Fprintln(os.Stderr, "lcaload: every request failed")
		os.Exit(1)
	}
}
