// Command lcabench runs the experiment suite that empirically reproduces
// the theory tables of the LCA papers (see DESIGN.md's experiment index
// E1-E13), plus a registry-generic sweep (REG) benchmarking every
// registered algorithm — an algorithm added to internal/registry appears
// there with no edits here — an implicit-source sweep (SRC) running
// point queries on generator-backed sources at vertex counts far beyond
// RAM (10^8 at the default scale, 10^9 at -scale large), and a network
// sweep (NET) that spins up real loopback HTTP shards and answers point
// queries through the remote:/sharded: source layer end to end.
//
// Usage:
//
//	lcabench [-exp all|REG|SRC|NET|E1,E4,...] [-seed N] [-scale small|medium|large] [-md] [-json]
//
// -exp all runs REG, SRC, NET and E1..E13; pass an explicit list (e.g.
// -exp E1,E5) to reproduce only the paper tables.
//
// With -json, results are emitted as JSON Lines on stdout: one object per
// benchmark scenario (table row), shaped
// {"experiment":"E1","title":...,"row":{column: value, ...}} — the format
// downstream tooling tracks perf trajectories with.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"lca/internal/balls"
	"lca/internal/baseline"
	"lca/internal/coloring"
	"lca/internal/core"
	"lca/internal/estimate"
	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/lowerbound"
	"lca/internal/matching"
	"lca/internal/mis"
	"lca/internal/oracle"
	"lca/internal/registry"
	"lca/internal/rnd"
	"lca/internal/serve"
	"lca/internal/source"
	"lca/internal/spanner"
	"lca/internal/stats"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiment IDs (E1..E13, REG, SRC, NET) or 'all'")
		seedFlag  = flag.Uint64("seed", 2019, "master random seed")
		scaleFlag = flag.String("scale", "medium", "problem sizes: small, medium or large")
		mdFlag    = flag.Bool("md", false, "emit markdown tables")
		jsonFlag  = flag.Bool("json", false, "emit JSON Lines, one object per benchmark scenario")
	)
	flag.Parse()

	r := &runner{seed: rnd.Seed(*seedFlag), scale: *scaleFlag, markdown: *mdFlag, jsonOut: *jsonFlag}
	type exp struct {
		id, title string
		run       func()
	}
	all := []exp{
		{"REG", "Registry sweep: point-query cost of every registered algorithm", r.reg},
		{"SRC", "Implicit sources: point queries at n beyond RAM", r.src},
		{"NET", "Network sources: point queries through remote/sharded HTTP shards", r.net},
		{"FAIL", "Failover: a sharded fleet keeps answering with a replica killed mid-sweep", r.fail},
		{"E1", "Table 1 (this-work rows): size / stretch / probes", r.e1},
		{"E2", "Table 2: 5-spanner probes by degree class", r.e2},
		{"E3", "Table 3: O(k^2)-spanner probes and edges by side", r.e3},
		{"E4", "Theorem 1.3: distinguisher advantage vs probe budget", r.e4},
		{"E5", "Probe-scaling exponents (log-log fits)", r.e5},
		{"E6", "Bounded-independence ablation (HI/HII and quality)", r.e6},
		{"E7", "LCA vs global baselines", r.e7},
		{"E8", "Sparse-regime LCAs: probes vs degree", r.e8},
		{"E9", "O(k^2)-spanner trade-off vs k", r.e9},
		{"E10", "Approximate maximum matching: ratio vs augmentation rounds", r.e10},
		{"E11", "Sublinear estimators: error vs sample count", r.e11},
		{"E12", "Rank-width q: stretch vs size trade-off (Thm 1.2 remark)", r.e12},
		{"E13", "Load balancing: the power of d choices through the LCA", r.e13},
	}
	want := map[string]bool{}
	if *expFlag == "all" {
		for _, e := range all {
			want[e.id] = true
		}
	} else {
		for _, e := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(strings.ToUpper(e))] = true
		}
	}
	ran := 0
	for _, e := range all {
		if !want[e.id] {
			continue
		}
		r.curID, r.curTitle = e.id, e.title
		if !r.jsonOut {
			fmt.Printf("## %s — %s\n\n", e.id, e.title)
		}
		e.run()
		if !r.jsonOut {
			fmt.Println()
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "no experiments selected")
		os.Exit(2)
	}
}

type runner struct {
	seed     rnd.Seed
	scale    string
	markdown bool
	jsonOut  bool
	// curID/curTitle identify the experiment being printed, for the JSON
	// emitter.
	curID, curTitle string
}

// benchRecord is the machine-readable shape of one benchmark scenario.
type benchRecord struct {
	Experiment string            `json:"experiment"`
	Title      string            `json:"title"`
	Row        map[string]string `json:"row"`
}

func (r *runner) print(t *stats.Table) {
	switch {
	case r.jsonOut:
		enc := json.NewEncoder(os.Stdout)
		for _, rec := range t.Records() {
			_ = enc.Encode(benchRecord{Experiment: r.curID, Title: r.curTitle, Row: rec})
		}
	case r.markdown:
		fmt.Print(t.Markdown())
	default:
		fmt.Print(t.String())
	}
}

// note prints free-form commentary below a table; suppressed in JSON mode
// so stdout stays machine-readable.
func (r *runner) note(format string, args ...any) {
	if r.jsonOut {
		return
	}
	fmt.Printf(format+"\n", args...)
}

// reg benchmarks every registered algorithm's point-query cost on one
// moderate bounded-degree workload: the registry makes the sweep generic,
// so a newly registered algorithm shows up here with no further edits.
func (r *runner) reg() {
	const n, deg = 600, 8
	g, err := gen.RandomRegular(n, deg, r.seed.Derive(0x9e9))
	if err != nil {
		fmt.Fprintf(os.Stderr, "REG: %v\n", err)
		return
	}
	t := stats.NewTable("algorithm", "kind", "queries", "mean probes", "max probes", "mean us/query")
	const samples = 60
	for _, d := range registry.All() {
		inst, err := d.Build(oracle.New(g), r.seed, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "REG: %s: %v\n", d.Name, err)
			continue
		}
		ask, _ := d.Kind.Bind(inst)
		queries := d.Kind.Queries(g)
		rep, _ := inst.(core.ProbeReporter)
		prg := rnd.NewPRG(r.seed.Derive(0x9ea))
		var q core.QueryStats
		start := time.Now()
		for i := 0; i < samples; i++ {
			var before oracle.Stats
			if rep != nil {
				before = rep.ProbeStats()
			}
			ask(queries[prg.Intn(len(queries))])
			if rep != nil {
				q.Observe(rep.ProbeStats().Sub(before))
			} else {
				q.Queries++
			}
		}
		elapsed := time.Since(start)
		t.AddRowf("%s|%s|%d|%.0f|%d|%.1f", d.Name, d.Kind, samples, q.Mean(), q.MaxTotal,
			float64(elapsed.Microseconds())/samples)
	}
	r.print(t)
	r.note("\nOne fresh instance per algorithm, %d queries each on a random %d-regular graph (n=%d), default parameters.", samples, deg, n)
}

// src sweeps the sparse-regime LCAs over implicit probe-native sources
// whose vertex counts dwarf RAM: every row is real point queries against a
// graph that never exists as adjacency in memory — the workload the LCA
// model was defined for. The 3-spanner rides along to show a dense-graph
// construction also answers (its E_low shortcut, at these degrees).
//
// The hot-local-path rows price the same circulant family served from a
// materialized CSR file — probed cold from disk, mmapped, and mmapped
// behind the row tier with its LRU L2 — plus the implicit source behind
// the tier. Their ns/probe and allocs/probe columns are
// the steady-state scalar probe cost of each backend (a primed working
// set probed repeatedly); the probe-count columns must match the direct
// rows exactly, since every backend serves the same graph.
func (r *runner) src() {
	var n int
	switch r.scale {
	case "small":
		n = 1_000_000
	case "large":
		n = 1_000_000_000
	default:
		n = 100_000_000
	}
	circSpec := fmt.Sprintf("circulant:n=%d,d=8", n)
	type variant struct {
		family, spec, config string
		algos                []string
		qc                   queryConfig
	}
	baseAlgos := []string{"mis", "coloring", "matching", "spanner3"}
	hotAlgos := []string{"mis", "spanner3"}
	variants := []variant{
		{"ring", fmt.Sprintf("ring:n=%d", n), "direct", baseAlgos, queryConfig{}},
		{"circulant", circSpec, "direct", baseAlgos, queryConfig{}},
		{"blockrandom", fmt.Sprintf("blockrandom:n=%d,d=6,block=64", n), "direct", baseAlgos, queryConfig{}},
		{"circulant", circSpec, "tiered-lru", hotAlgos, queryConfig{rowCache: true}},
	}
	if csrPath := r.writeBenchCSR(circSpec, n); csrPath != "" {
		defer os.Remove(csrPath)
		variants = append(variants,
			variant{"circulant", "csr:" + csrPath, "csr-cold", hotAlgos, queryConfig{}},
			variant{"circulant", "csr:" + csrPath + "?mmap=1", "csr-mmap", hotAlgos, queryConfig{}},
			variant{"circulant", "csr:" + csrPath + "?mmap=1", "csr-mmap+lru", hotAlgos, queryConfig{rowCache: true}},
		)
	}
	t := stats.NewTable("source", "config", "algorithm", "n", "queries", "mean probes", "max probes", "mean us/query", "ns/probe", "allocs/probe")
	const samples = 40
	for _, va := range variants {
		src, err := source.Parse(va.spec, r.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "SRC: %s: %v\n", va.spec, err)
			continue
		}
		nsProbe, allocsProbe := r.probeHotPath(src, va.qc, n)
		for _, name := range va.algos {
			q, elapsed, _, err := r.measurePointQueries(src, name, n, samples, 0x5bc, va.qc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "SRC: %s: %v\n", name, err)
				continue
			}
			t.AddRowf("%s|%s|%s|%d|%d|%.0f|%d|%.1f|%.1f|%.3f", va.family, va.config, name, n, q.Queries, q.Mean(), q.MaxTotal,
				float64(elapsed.Microseconds())/float64(max(q.Queries, 1)), nsProbe, allocsProbe)
		}
		if c, ok := src.(source.Closer); ok {
			_ = c.Close()
		}
	}
	r.print(t)
	r.note("\nNo direct row ever holds adjacency in memory: sources synthesize neighborhoods per probe from the seed. Probe counts are flat in n — the whole point of the model — and identical down each algorithm's column: the CSR file, the mmap and the row-cache tiers serve the same graph, so only ns/probe and allocs/probe (the steady-state scalar probe cost) move. Cold CSR pays a syscall per probe; mmap reads mapped memory; the tiered rows answer from the arena-backed L1 with zero steady-state allocations.")
}

// benchRowCacheRows is the shared-L2 bound of the tiered bench rows.
const benchRowCacheRows = 4096

// writeBenchCSR materializes spec as a temporary CSR file for the
// hot-local-path rows, returning "" when the scale makes the file
// impractical (n=10^9 is a ~40GB file) or the write fails. The caller
// removes the file.
func (r *runner) writeBenchCSR(spec string, n int) string {
	if n > 200_000_000 {
		fmt.Fprintf(os.Stderr, "SRC: skipping CSR rows at n=%d (file too large)\n", n)
		return ""
	}
	src, err := source.Parse(spec, r.seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "SRC: %s: %v\n", spec, err)
		return ""
	}
	f, err := os.CreateTemp("", "lcabench-*.csr")
	if err != nil {
		fmt.Fprintf(os.Stderr, "SRC: %v\n", err)
		return ""
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = graph.WriteCSRStream(bw, n, src.Degree, func(v, i int) int { return src.Neighbor(v, i) })
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "SRC: writing %s: %v\n", f.Name(), err)
		os.Remove(f.Name())
		return ""
	}
	return f.Name()
}

// probeHotPath prices the steady-state scalar probe path of the oracle
// chain qc builds over src: a fixed working set of rows is primed, then
// probed repeatedly with Degree and Neighbor while the clock runs and
// allocations are counted. This isolates what the backend charges per
// probe once caches are warm — the figure the mmap backend and the
// tiered row caches exist to drive down — from the per-query cost of the
// algorithms above.
func (r *runner) probeHotPath(src source.Source, qc queryConfig, n int) (nsPerProbe, allocsPerProbe float64) {
	const workingSet = 256
	const rounds = 200
	o := probeChain(src, qc)
	prg := rnd.NewPRG(r.seed.Derive(0x4a7))
	vs := make([]int, workingSet)
	for i := range vs {
		vs[i] = prg.Intn(n)
	}
	for _, v := range vs { // prime the tiers (and fault in the pages)
		if o.Degree(v) > 0 {
			o.Neighbor(v, 0)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	probes := 0
	start := time.Now()
	for round := 0; round < rounds; round++ {
		for _, v := range vs {
			d := o.Degree(v)
			probes++
			if d > 0 {
				o.Neighbor(v, round%d)
				probes++
			}
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(probes),
		float64(m1.Mallocs-m0.Mallocs) / float64(probes)
}

// queryConfig tunes how measurePointQueries builds its oracle chain:
// prefetch puts the row tier over the source, and rowCache puts it there
// with a bounded LRU L2.
type queryConfig struct {
	prefetch bool
	rowCache bool
}

// probeChain builds the oracle chain a queryConfig describes through
// oracle.NewChain, shared by the query sweeps and the hot-path probe
// pricing so both measure the same stack.
func probeChain(src source.Source, qc queryConfig) oracle.Oracle {
	cfg := oracle.ChainConfig{Prefetch: qc.prefetch}
	if qc.rowCache {
		cfg.RowCache = oracle.NewRowCache(benchRowCacheRows)
	}
	return oracle.NewChain(src, cfg)
}

// measurePointQueries runs `samples` point queries of the named
// algorithm's kind against src on one fresh instance, returning probe
// stats, elapsed wall time and the p99 round trips per query — the
// shared measurement loop of the SRC, NET and FAIL sweeps. Each query
// is the kind's query rooted at a random vertex v (Kind.QueryAt): edge
// queries target (v, first neighbor of v), skipping the rare isolated
// vertex (blockrandom has a few). With prefetch, the instance runs over
// the row tier; the per-query stats then show the round-trip collapse
// while the probe columns stay identical.
func (r *runner) measurePointQueries(src source.Source, algo string, n, samples int, deriveLabel uint64, qc queryConfig) (core.QueryStats, time.Duration, float64, error) {
	d, err := registry.Get(algo)
	if err != nil {
		return core.QueryStats{}, 0, 0, err
	}
	inst, err := d.Build(probeChain(src, qc), r.seed, nil)
	if err != nil {
		return core.QueryStats{}, 0, 0, err
	}
	ask, _ := d.Kind.Bind(inst)
	rep, _ := inst.(core.ProbeReporter)
	prg := rnd.NewPRG(r.seed.Derive(deriveLabel))
	var q core.QueryStats
	var rts []uint64
	start := time.Now()
	for i := 0; i < samples; i++ {
		v := prg.Intn(n)
		var before oracle.Stats
		if rep != nil {
			before = rep.ProbeStats()
		}
		query, ok := d.Kind.QueryAt(src, v)
		if !ok {
			continue
		}
		ask(query)
		if rep != nil {
			delta := rep.ProbeStats().Sub(before)
			q.Observe(delta)
			rts = append(rts, delta.RoundTrips)
		} else {
			q.Queries++
		}
	}
	return q, time.Since(start), p99(rts), nil
}

// p99 returns the 99th-percentile of the per-query round-trip counts (0
// when nothing was observed).
func p99(rts []uint64) float64 {
	if len(rts) == 0 {
		return 0
	}
	sorted := make([]uint64, len(rts))
	copy(sorted, rts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(0.99*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(sorted[idx])
}

// net benchmarks the network source layer end to end: real loopback HTTP
// shards (full lcaserve handlers, each wrapping its own replica of one
// implicit source) probed through the remote:/sharded: spec grammar. A
// local row over the same backing spec is the control: every config runs
// the same queries, so the mean-probe column must be identical down the
// table — the wire protocol is transparent — while "mean rt/query"
// counts the real HTTP round trips and us/query prices them. Each
// network config runs twice, scalar and prefetch: the prefetch rows route
// through the exploration oracle, whose batched neighborhood fetches
// collapse the round trips per query (probes unchanged — the collapse is
// pure transport).
func (r *runner) net() {
	var n int
	switch r.scale {
	case "small":
		n = 100_000
	case "large":
		n = 10_000_000
	default:
		n = 1_000_000
	}
	backingSpec := fmt.Sprintf("circulant:n=%d,d=8", n)
	var cleanup []func()
	defer func() {
		for _, c := range cleanup {
			c()
		}
	}()
	spawnShard := func(spec string, attested bool) (url, root string, ok bool) {
		backing, err := source.Parse(spec, r.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "NET: %v\n", err)
			return "", "", false
		}
		if attested {
			att := source.NewAttested(backing)
			backing, root = att, att.Commitment().String()
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "NET: %v\n", err)
			return "", "", false
		}
		srv := &http.Server{Handler: serve.NewFromSource(backing, spec, r.seed).Handler()}
		go func() { _ = srv.Serve(ln) }()
		cleanup = append(cleanup, func() { _ = srv.Close() })
		return "http://" + ln.Addr().String(), root, true
	}
	urls := make([]string, 2)
	for i := range urls {
		u, _, ok := spawnShard(backingSpec, false)
		if !ok {
			return
		}
		urls[i] = u
	}
	attURL, attRoot, ok := spawnShard(backingSpec, true)
	if !ok {
		return
	}
	configs := []struct {
		name, spec string
		qc         queryConfig
	}{
		{"local", backingSpec, queryConfig{}},
		{"remote x1", "remote:" + urls[0], queryConfig{}},
		{"remote x1 prefetch", "remote:" + urls[0], queryConfig{prefetch: true}},
		{"sharded x2", "sharded:remote:" + urls[0] + ",remote:" + urls[1], queryConfig{}},
		{"sharded x2 prefetch", "sharded:remote:" + urls[0] + ",remote:" + urls[1], queryConfig{prefetch: true}},
		// Attestation rows: the same shard committed to its graph, the
		// client pinning the root — every answer verified against a Merkle
		// row proof. The probe columns must stay identical to the remote x1
		// rows (verification never changes answers); proof B/query prices
		// the integrity, scalar vs rowfull-batched transport.
		{"remote x1 attest", "remote:" + attURL + "#root=" + attRoot, queryConfig{}},
		{"remote x1 attest prefetch", "remote:" + attURL + "#root=" + attRoot, queryConfig{prefetch: true}},
	}
	algos := []string{"mis", "coloring"}
	t := stats.NewTable("config", "algorithm", "n", "queries", "mean probes", "max probes", "mean rt/query", "p99 rt/query", "proof B/query", "mean us/query")
	const samples = 15
	for _, cfg := range configs {
		src, err := source.Parse(cfg.spec, r.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "NET: %s: %v\n", cfg.name, err)
			continue
		}
		for _, name := range algos {
			q, elapsed, p99rt, err := r.measurePointQueries(src, name, n, samples, 0x6e7, cfg.qc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "NET: %s: %v\n", name, err)
				continue
			}
			t.AddRowf("%s|%s|%d|%d|%.0f|%d|%.1f|%.1f|%.0f|%.1f", cfg.name, name, n, q.Queries, q.Mean(), q.MaxTotal,
				q.MeanRoundTrips(), p99rt, float64(q.ByKind.ProofBytes)/float64(max(q.Queries, 1)),
				float64(elapsed.Microseconds())/float64(max(q.Queries, 1)))
		}
		if c, ok := src.(source.Closer); ok {
			_ = c.Close()
		}
	}
	r.print(t)
	r.note("\nEvery non-local row's probes crossed a real HTTP hop to a loopback shard. The mean-probe column is identical down the table — the wire is transparent; mean rt/query counts the real HTTP requests (p99 the tail) and us/query prices them. Prefetch rows fetch each explored neighborhood as one rowfull POST, and coloring fetches its whole query DAG one level per POST (oracle.Explore), so their round trips collapse. The attest rows pin the shard's Merkle root and verify every answer against a row proof: probe and round-trip columns must match their unattested twins exactly (verification is client-side), and proof B/query is the integrity bandwidth — amortized by the prefetch row, whose batched rows carry one proof each.")
}

// fail benchmarks the failover path end to end: two loopback lcaserve
// shards behind one sharded: spec (hedged), one of them killed between
// the healthy and degraded phases. The degraded rows must keep the mean
// probe column identical to the healthy rows — failover re-routes
// transport, never changes answers — while the failover column shows the
// dead shard's keys being served by the survivor and "mean rt/query"
// prices the detour (the dead shard is marked dead after the failure
// threshold, so the price is a few failed attempts, not one per probe).
func (r *runner) fail() {
	var n int
	switch r.scale {
	case "small":
		n = 100_000
	case "large":
		n = 10_000_000
	default:
		n = 1_000_000
	}
	backingSpec := fmt.Sprintf("circulant:n=%d,d=8", n)
	const shardCount = 2
	urls := make([]string, shardCount)
	servers := make([]*http.Server, shardCount)
	defer func() {
		for _, srv := range servers {
			if srv != nil {
				_ = srv.Close()
			}
		}
	}()
	for i := 0; i < shardCount; i++ {
		backing, err := source.Parse(backingSpec, r.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: %v\n", err)
			return
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: %v\n", err)
			return
		}
		servers[i] = &http.Server{Handler: serve.NewFromSource(backing, backingSpec, r.seed).Handler()}
		go func(srv *http.Server) { _ = srv.Serve(ln) }(servers[i])
		urls[i] = "http://" + ln.Addr().String()
	}
	// Two sharded clients over the same replica pair: one with the fixed
	// hedge delay, one letting the per-shard latency estimator pick it.
	// Both see the same kill, so the adaptive rows price what the learned
	// delay buys on the degraded tail.
	hedges := []struct{ label, spec string }{
		{"", "sharded:remote:" + urls[0] + ";remote:" + urls[1] + ";hedge=100ms"},
		{"adaptive", "sharded:remote:" + urls[0] + ";remote:" + urls[1] + ";hedge=adaptive"},
	}
	srcs := make([]source.Source, len(hedges))
	for i, h := range hedges {
		src, err := source.Parse(h.spec, r.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: %v\n", err)
			return
		}
		srcs[i] = src
		defer func() {
			if c, ok := src.(source.Closer); ok {
				_ = c.Close()
			}
		}()
	}
	algos := []string{"mis", "coloring"}
	t := stats.NewTable("config", "algorithm", "n", "queries", "mean probes", "max probes", "mean rt/query", "p99 rt/query", "failovers", "mean us/query")
	const samples = 15
	measure := func(phase string, deriveLabel uint64) {
		for i, h := range hedges {
			config := "sharded x2 " + phase
			if h.label != "" {
				config = "sharded x2 " + h.label + " " + phase
			}
			for _, name := range algos {
				q, elapsed, p99rt, err := r.measurePointQueries(srcs[i], name, n, samples, deriveLabel, queryConfig{})
				if err != nil {
					fmt.Fprintf(os.Stderr, "FAIL: %s: %v\n", name, err)
					continue
				}
				t.AddRowf("%s|%s|%d|%d|%.0f|%d|%.1f|%.1f|%d|%.1f", config, name, n, q.Queries, q.Mean(), q.MaxTotal,
					q.MeanRoundTrips(), p99rt, q.ByKind.Failovers, float64(elapsed.Microseconds())/float64(max(q.Queries, 1)))
			}
		}
	}
	measure("healthy", 0x7a1)
	// Kill one replica mid-sweep: the same sources keep answering, the
	// dead shard's keys re-routed to the survivor.
	_ = servers[1].Close()
	servers[1] = nil
	measure("one-killed", 0x7a1)
	r.print(t)
	r.note("\nBoth phases run the same query mix on the same open sharded sources; a replica is killed in between. Mean probes must be identical down the table (failover never changes answers); the failover column counts probes served away from their rendezvous shard, and rt/query prices the detection window (threshold failures, then the dead shard stops being tried). The adaptive rows hedge at the learned per-shard p95 instead of the fixed 100ms, so their p99 rt/query on the degraded phase must not exceed the fixed-hedge rows'. The round-trip columns of the adaptive healthy rows do not repeat between runs: on a healthy loopback fleet the learned delay sits at its 1ms floor against trips of tens of microseconds, so any probe that stalls past 1ms fires a duplicate request.")
}

// sizes returns the n grid for the current scale.
func (r *runner) sizes() []int {
	switch r.scale {
	case "small":
		return []int{256, 512}
	case "large":
		return []int{256, 512, 1024, 2048}
	default:
		return []int{256, 512, 1024}
	}
}

// denseWorkload has average degree ~8*sqrt(n): all degree classes of the
// 3/5-spanner analyses are populated.
func denseWorkload(n int, seed rnd.Seed) *graph.Graph {
	p := 8 / math.Sqrt(float64(n))
	if p > 0.8 {
		p = 0.8
	}
	return gen.Gnp(n, p, seed)
}

// edgeQuerier is any edge LCA exposing probe counts.
type edgeQuerier interface {
	QueryEdge(u, v int) bool
	ProbeStats() oracle.Stats
}

// probeSample queries `samples` random edges on a fresh (memo-free) LCA and
// returns max and mean probes per query.
func probeSample(g *graph.Graph, mk func() edgeQuerier, samples int, seed rnd.Seed) (max uint64, mean float64) {
	edges := g.Edges()
	if len(edges) == 0 {
		return 0, 0
	}
	prg := rnd.NewPRG(seed)
	l := mk()
	var q core.QueryStats
	for i := 0; i < samples; i++ {
		e := edges[prg.Intn(len(edges))]
		before := l.ProbeStats()
		l.QueryEdge(e.U, e.V)
		q.Observe(l.ProbeStats().Sub(before))
	}
	return q.MaxTotal, q.Mean()
}

// e1 reproduces the "This Work" rows of Table 1 empirically. Size and
// probe bounds are reported as ratios against the full ~O expression
// n^{e} * ln^2 n — the polylog is part of the theorem statements, and at
// these n it dominates the constants.
func (r *runner) e1() {
	t := stats.NewTable("construction", "graph", "n", "m", "|H|", "|H| / ~O(n^{1+1/r})", "stretch<=", "max probes", "probes / ~O(n^{1-1/2r})")
	oBound := func(n int, exp float64) float64 {
		l := math.Log(float64(n))
		return math.Pow(float64(n), exp) * l * l
	}
	for _, n := range r.sizes() {
		g := denseWorkload(n, r.seed.Derive(uint64(n)))
		// 3-spanner (Theorem 1.1, r=2).
		s3 := spanner.NewSpanner3Config(oracle.New(g), r.seed, spanner.Config{Memo: true})
		h3, _ := core.BuildSubgraph(g, s3)
		rep3 := core.VerifyStretchSampled(g, h3, 3, 3000, r.seed)
		max3, _ := probeSample(g, func() edgeQuerier { return spanner.NewSpanner3(oracle.New(g), r.seed) }, 150, r.seed.Derive(1))
		t.AddRowf("3-spanner|gnp-dense|%d|%d|%d|%.2f|%s|%d|%.2f",
			n, g.M(), h3.M(), float64(h3.M())/oBound(n, 1.5), stretchCell(rep3, 3), max3, float64(max3)/oBound(n, 0.75))
		// 5-spanner (Theorem 1.1, r=3).
		s5 := spanner.NewSpanner5Config(oracle.New(g), r.seed, spanner.Config{Memo: true})
		h5, _ := core.BuildSubgraph(g, s5)
		rep5 := core.VerifyStretchSampled(g, h5, 5, 3000, r.seed)
		max5, _ := probeSample(g, func() edgeQuerier { return spanner.NewSpanner5(oracle.New(g), r.seed) }, 150, r.seed.Derive(2))
		t.AddRowf("5-spanner|gnp-dense|%d|%d|%d|%.2f|%s|%d|%.2f",
			n, g.M(), h5.M(), float64(h5.M())/oBound(n, 4.0/3), stretchCell(rep5, 5), max5, float64(max5)/oBound(n, 5.0/6))
	}
	// Theorem 3.5: min-degree >= n^{1-1/(2r)} workloads (cliques).
	for _, n := range []int{256, 512} {
		g := gen.Complete(n)
		for _, rr := range []int{2, 3} {
			s := spanner.NewSuperSpanner(oracle.New(g), rr, r.seed, spanner.Config{})
			h, _ := core.BuildSubgraph(g, s)
			rep := core.VerifyStretchSampled(g, h, 3, 3000, r.seed)
			max, _ := probeSample(g, func() edgeQuerier {
				return spanner.NewSuperSpanner(oracle.New(g), rr, r.seed, spanner.Config{})
			}, 100, r.seed.Derive(3))
			t.AddRowf("thm3.5 r=%d|K_n|%d|%d|%d|%.2f|%s|%d|%.2f",
				rr, n, g.M(), h.M(), float64(h.M())/oBound(n, 1+1/float64(rr)), stretchCell(rep, 3), max,
				float64(max)/oBound(n, 1-1/(2*float64(rr))))
		}
	}
	// Theorem 1.2: bounded-degree torus.
	g := gen.Torus(32, 32)
	for _, k := range []int{2, 3} {
		cfg := spanner.KConfig{Config: spanner.Config{Memo: true}, L: 40, CenterProb: 0.03}
		s := spanner.NewSpannerKConfig(oracle.New(g), k, r.seed, cfg)
		h, _ := core.BuildSubgraph(g, s)
		got := core.ExactMaxStretch(g, h)
		cfgPlain := cfg
		cfgPlain.Memo = false
		max, _ := probeSample(g, func() edgeQuerier {
			return spanner.NewSpannerKConfig(oracle.New(g), k, r.seed, cfgPlain)
		}, 100, r.seed.Derive(4))
		t.AddRowf("O(k^2) k=%d|torus 32x32|%d|%d|%d|%.2f|max %d (k^2=%d)|%d|-",
			k, g.N(), g.M(), h.M(), float64(h.M())/oBound(g.N(), 1+1/float64(k)), got, k*k, max)
	}
	r.print(t)
	r.note("\nRatios <= O(1) mean the measurement sits inside the ~O bound. The 5-spanner ratio at small n reflects the saturated sampling regime (log n > n^{1/3}); see E5 for the clean exponent fit.")
}

func stretchCell(rep core.StretchReport, bound int) string {
	if rep.Violations == 0 {
		return fmt.Sprintf("%d ok (max %d)", bound, rep.MaxStretch)
	}
	return fmt.Sprintf("VIOLATED %d/%d", rep.Violations, rep.Checked)
}

// e2 reproduces Table 2: 5-spanner per-class probe complexity.
func (r *runner) e2() {
	n := 1024
	// Core size 420 > n^{5/6} ~ 323 populates E_super; the periphery
	// populates E_low and the band in between.
	g := gen.DenseCore(n, 420, 12, r.seed.Derive(0x22))
	dMed := int(math.Ceil(math.Cbrt(float64(n))))
	dSuper := int(math.Ceil(math.Pow(float64(n), 5.0/6)))
	buckets := map[string][]graph.Edge{}
	for _, e := range g.Edges() {
		du, dv := g.Degree(e.U), g.Degree(e.V)
		lo, hi := du, dv
		if lo > hi {
			lo, hi = hi, lo
		}
		var class string
		switch {
		case lo <= dMed:
			class = "E_low"
		case hi >= dSuper:
			class = "E_super"
		default:
			class = "E_mid (bckt/rep)"
		}
		buckets[class] = append(buckets[class], e)
	}
	t := stats.NewTable("class", "edges", "max probes", "mean probes", "paper bound")
	bounds := map[string]string{
		"E_low":            "O(1)",
		"E_mid (bckt/rep)": "O(n^{5/6} log^2 n)",
		"E_super":          "O(n^{5/6} log n)",
	}
	names := make([]string, 0, len(buckets))
	for class := range buckets {
		names = append(names, class)
	}
	sort.Strings(names)
	for _, class := range names {
		edges := buckets[class]
		l := spanner.NewSpanner5(oracle.New(g), r.seed)
		var q core.QueryStats
		prg := rnd.NewPRG(r.seed.Derive(0x23))
		for i := 0; i < 100; i++ {
			e := edges[prg.Intn(len(edges))]
			before := l.ProbeStats()
			l.QueryEdge(e.U, e.V)
			q.Observe(l.ProbeStats().Sub(before))
		}
		t.AddRowf("%s|%d|%d|%.0f|%s", class, len(edges), q.MaxTotal, q.Mean(), bounds[class])
	}
	r.print(t)
}

// e3 reproduces Table 3: the O(k^2)-spanner split by construction side.
func (r *runner) e3() {
	g := gen.Gnp(600, 0.015, r.seed.Derive(0x31))
	kcfg := spanner.KConfig{Config: spanner.Config{Memo: true}, L: 30, CenterProb: 0.05}
	classifier := spanner.NewSpannerKConfig(oracle.New(g), 2, r.seed, kcfg)
	h, _ := core.BuildSubgraph(g, classifier)
	classes := map[string][]graph.Edge{}
	sizes := map[string]int{}
	for _, e := range g.Edges() {
		c := classifier.EdgeClass(e.U, e.V)
		classes[c] = append(classes[c], e)
		if h.HasEdge(e.U, e.V) {
			sizes[c]++
		}
	}
	plain := kcfg
	plain.Memo = false
	t := stats.NewTable("side", "edges in G", "edges kept", "max probes", "mean probes", "paper bound")
	bounds := map[string]string{
		"sparse": "O(Delta^2 L^2)",
		"tree":   "O(Delta L)",
		"cells":  "O(p Delta^4 L^3 log n)",
	}
	for _, side := range []string{"sparse", "tree", "cells"} {
		edges := classes[side]
		if len(edges) == 0 {
			t.AddRowf("%s|0|0|-|-|%s", side, bounds[side])
			continue
		}
		l := spanner.NewSpannerKConfig(oracle.New(g), 2, r.seed, plain)
		var q core.QueryStats
		prg := rnd.NewPRG(r.seed.Derive(0x32))
		for i := 0; i < 60; i++ {
			e := edges[prg.Intn(len(edges))]
			before := l.ProbeStats()
			l.QueryEdge(e.U, e.V)
			q.Observe(l.ProbeStats().Sub(before))
		}
		t.AddRowf("%s|%d|%d|%d|%.0f|%s", side, len(edges), sizes[side], q.MaxTotal, q.Mean(), bounds[side])
	}
	r.print(t)
}

// e4 reproduces the Theorem 1.3 shape: advantage vs probe budget.
func (r *runner) e4() {
	t := stats.NewTable("n", "d", "budget", "budget/sqrt(n)", "meet rate", "advantage")
	ns := []int{256, 1024}
	if r.scale == "large" {
		ns = append(ns, 4096)
	}
	for _, n := range ns {
		d := 4
		sqrtN := math.Sqrt(float64(n))
		var budgets []int
		for f := 0.125; f <= 16; f *= 4 {
			budgets = append(budgets, int(f*sqrtN))
		}
		exp := lowerbound.Experiment{N: n, D: d, MaxBudget: budgets[len(budgets)-1], Trials: 40, Seed: r.seed.Derive(uint64(n))}
		pts, err := exp.Run(budgets)
		if err != nil {
			fmt.Fprintf(os.Stderr, "E4 failed for n=%d: %v\n", n, err)
			continue
		}
		for _, p := range pts {
			t.AddRowf("%d|%d|%d|%.2f|%.2f|%.2f", n, d, p.Budget, float64(p.Budget)/sqrtN, p.MeetRate, p.Advantage)
		}
	}
	r.print(t)
	r.note("\nShape check: advantage ~0 for budgets well below sqrt(n), rising once the budget crosses the Theta(sqrt(n)) birthday scale (Theorem 1.3).")
}

// e5 fits the probe-scaling exponents. Each construction is measured on a
// workload whose degrees stay inside its interesting band across the whole
// n grid (a crossing of the n^{3/4} / n^{5/6} thresholds mid-grid would
// switch code paths and corrupt the fit). HitConst=1 keeps the sampling
// probabilities strictly below 1 at these n (the Theta(log n) analysis
// assumes n^{1/3} >> log n).
func (r *runner) e5() {
	cfg := spanner.Config{HitConst: 1}
	fit := func(ns []int, deg func(n int) float64, mk func(g *graph.Graph) edgeQuerier) (xs, means []float64) {
		for _, n := range ns {
			p := deg(n) / float64(n)
			g := gen.Gnp(n, p, r.seed.Derive(uint64(n)))
			_, mean := probeSample(g, func() edgeQuerier { return mk(g) }, 100, r.seed.Derive(uint64(n)+7))
			xs = append(xs, float64(n))
			means = append(means, mean)
		}
		return xs, means
	}
	ns3 := []int{256, 512, 1024, 2048}
	ns5 := []int{512, 1024, 2048}
	if r.scale == "large" {
		ns3 = append(ns3, 4096)
		ns5 = append(ns5, 4096)
	}
	t := stats.NewTable("construction", "workload degree", "fitted exponent", "theory exponent", "probes at max n")
	// 3-spanner: Delta = 8*sqrt(n) exercises E_high and E_super.
	x3, y3 := fit(ns3,
		func(n int) float64 { return 8 * math.Sqrt(float64(n)) },
		func(g *graph.Graph) edgeQuerier { return spanner.NewSpanner3Config(oracle.New(g), r.seed, cfg) })
	if a, _, ok := stats.FitPowerLaw(x3, y3); ok {
		t.AddRowf("3-spanner|8 sqrt(n)|%.3f|0.750|%.0f", a, y3[len(y3)-1])
	}
	// 5-spanner: Delta = 2*n^{0.6} stays inside [n^{1/3}, n^{5/6}], the
	// band where the bucket/representative machinery does the work.
	x5, y5 := fit(ns5,
		func(n int) float64 { return 2 * math.Pow(float64(n), 0.6) },
		func(g *graph.Graph) edgeQuerier { return spanner.NewSpanner5Config(oracle.New(g), r.seed, cfg) })
	if a, _, ok := stats.FitPowerLaw(x5, y5); ok {
		t.AddRowf("5-spanner|2 n^0.6|%.3f|0.833|%.0f", a, y5[len(y5)-1])
	}
	r.print(t)
	r.note("\nShape check: both constructions are strongly sublinear in n even at Delta = n^{Omega(1)}; finite-size polylog factors perturb the fitted exponents by O(1/log n).")
}

// e6 is the bounded-independence ablation.
func (r *runner) e6() {
	n := 1024
	g := denseWorkload(n, r.seed.Derive(0x61))
	delta := int(math.Ceil(math.Sqrt(float64(n))))
	t := stats.NewTable("independence", "|S|", "E[|S|]", "high vertices", "covered (HII)", "min hits", "mean hits", "|H3|", "stretch")
	for _, ind := range []int{2, 4, 0} {
		label := fmt.Sprintf("%d-wise", ind)
		if ind == 0 {
			label = "Theta(log n)-wise"
		}
		hit := spanner.EvalHitting(g, delta, r.seed.Derive(0x62), 2.5, indOrDefault(ind, n))
		cfg := spanner.Config{Memo: true, Independence: ind}
		s := spanner.NewSpanner3Config(oracle.New(g), r.seed.Derive(0x63), cfg)
		h, _ := core.BuildSubgraph(g, s)
		rep := core.VerifyStretchSampled(g, h, 3, 2000, r.seed)
		t.AddRowf("%s|%d|%.0f|%d|%d|%d|%.1f|%d|%s", label,
			hit.Centers, hit.ExpectedCenters, hit.HighVertices, hit.Covered, hit.MinHits, hit.MeanHits,
			h.M(), stretchCell(rep, 3))
	}
	r.print(t)
}

func indOrDefault(ind, n int) int {
	if ind > 0 {
		return ind
	}
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return 2*l + 4
}

// e7 compares the LCA spanners with global baselines.
func (r *runner) e7() {
	t := stats.NewTable("algorithm", "model", "n", "m", "|H|", "max stretch (sampled)")
	for _, n := range []int{512, 1024} {
		g := denseWorkload(n, r.seed.Derive(uint64(0x71+n)))
		rows := []struct {
			name, model string
			build       func() *graph.Graph
			bound       int
		}{
			{"LCA 3-spanner", "local", func() *graph.Graph {
				h, _ := core.BuildSubgraph(g, spanner.NewSpanner3Config(oracle.New(g), r.seed, spanner.Config{Memo: true}))
				return h
			}, 3},
			{"Baswana-Sen k=2", "global", func() *graph.Graph { return baseline.BaswanaSen(g, 2, r.seed) }, 3},
			{"Greedy k=2", "global", func() *graph.Graph { return baseline.GreedySpanner(g, 2) }, 3},
			{"LCA 5-spanner", "local", func() *graph.Graph {
				h, _ := core.BuildSubgraph(g, spanner.NewSpanner5Config(oracle.New(g), r.seed, spanner.Config{Memo: true}))
				return h
			}, 5},
			{"Baswana-Sen k=3", "global", func() *graph.Graph { return baseline.BaswanaSen(g, 3, r.seed) }, 5},
			{"Greedy k=3", "global", func() *graph.Graph { return baseline.GreedySpanner(g, 3) }, 5},
		}
		for _, row := range rows {
			h := row.build()
			rep := core.VerifyStretchSampled(g, h, row.bound, 2000, r.seed)
			t.AddRowf("%s|%s|%d|%d|%d|%s", row.name, row.model, n, g.M(), h.M(), stretchCell(rep, row.bound))
		}
	}
	r.print(t)
}

// e8 measures the classical LCAs' probe growth with degree.
func (r *runner) e8() {
	t := stats.NewTable("algorithm", "d", "mean probes/query", "max probes/query")
	for _, d := range []int{3, 6, 12, 24} {
		g, err := gen.RandomRegular(2048, d, r.seed.Derive(uint64(d)))
		if err != nil {
			fmt.Fprintf(os.Stderr, "E8: %v\n", err)
			return
		}
		measure := func(name string, query func(seed rnd.Seed, v int) uint64) {
			var q stats.Summary
			for i := 0; i < 60; i++ {
				q.Add(float64(query(r.seed.Derive(uint64(i)), (i*37)%g.N())))
			}
			t.AddRowf("%s|%d|%.1f|%.0f", name, d, q.Mean(), q.Max())
		}
		measure("MIS", func(seed rnd.Seed, v int) uint64 {
			l := mis.New(oracle.New(g), seed)
			l.QueryVertex(v)
			return l.ProbeStats().Total()
		})
		measure("matching", func(seed rnd.Seed, v int) uint64 {
			l := matching.New(oracle.New(g), seed)
			l.QueryEdge(v, g.Neighbor(v, 0))
			return l.ProbeStats().Total()
		})
		measure("coloring", func(seed rnd.Seed, v int) uint64 {
			l := coloring.New(oracle.New(g), seed)
			l.QueryLabel(v)
			return l.ProbeStats().Total()
		})
	}
	r.print(t)
	r.note("\nShape check: probes grow superlinearly in d (the sparse-regime blowup motivating the dense-graph spanner LCAs).")
}

// e10 sweeps augmentation rounds for the approximate matching LCA on
// graphs with known maximum matchings.
func (r *runner) e10() {
	t := stats.NewTable("graph", "optimum", "rounds", "|M|", "ratio", "guarantee (r+1)/(r+2)", "mean probes/query")
	cases := []struct {
		name string
		g    *graph.Graph
		opt  int
	}{
		{"path 400", gen.Path(400), 200},
		{"cycle 401", gen.Cycle(401), 200},
		{"grid 8x50", gen.Grid(8, 50), 200},
	}
	for _, c := range cases {
		for _, rounds := range []int{0, 1, 2} {
			lca := matching.NewApprox(oracle.New(c.g), rounds, r.seed)
			m, _ := core.BuildSubgraph(c.g, lca)
			// Probes on a fresh instance, sampled.
			probe := matching.NewApprox(oracle.New(c.g), rounds, r.seed)
			edges := c.g.Edges()
			prg := rnd.NewPRG(r.seed.Derive(0xa10))
			var q core.QueryStats
			for i := 0; i < 50; i++ {
				e := edges[prg.Intn(len(edges))]
				before := probe.ProbeStats()
				probe.QueryEdge(e.U, e.V)
				q.Observe(probe.ProbeStats().Sub(before))
			}
			t.AddRowf("%s|%d|%d|%d|%.3f|%.3f|%.0f", c.name, c.opt, rounds, m.M(),
				float64(m.M())/float64(c.opt), float64(rounds+1)/float64(rounds+2), q.Mean())
		}
	}
	r.print(t)
	r.note("\nShape check: the measured ratio dominates the (r+1)/(r+2) guarantee at every r, and probe cost grows with the round count (the Delta^{O(1/eps)} sparse-regime price).")
}

// e11 measures estimator error against the Hoeffding bound.
func (r *runner) e11() {
	g := gen.Torus(50, 50) // n=2500
	seed := r.seed.Derive(0xe11)
	// Ground truth by exhaustive assembly.
	truthSet, _ := core.BuildVertexSet(g, mis.New(oracle.New(g), seed))
	truth := 0
	for _, b := range truthSet {
		if b {
			truth++
		}
	}
	trueFrac := float64(truth) / float64(g.N())
	t := stats.NewTable("samples", "estimate", "true fraction", "|error|", "hoeffding bound (95%)")
	for _, s := range []int{50, 200, 800, 3200} {
		l := mis.New(oracle.New(g), seed)
		res := estimate.VertexFraction(g.N(), l, s, 0.05, r.seed.Derive(uint64(s)))
		t.AddRowf("%d|%.4f|%.4f|%.4f|%.4f", s, res.Fraction, trueFrac,
			math.Abs(res.Fraction-trueFrac), res.ErrorBound)
	}
	r.print(t)
	r.note("\nShape check: the error falls inside the Hoeffding radius and shrinks like 1/sqrt(samples) — solution sizes are estimable without ever materializing the solution.")
}

// e12 sweeps the rank-rule width q of the O(k^2)-spanner, the paper's
// post-Theorem-1.2 remark: ~O(n^{1+1/k} + nq) edges buy stretch
// O(k log_q n), interpolating down to the Lenzen-Levi single-edge rule at
// q=1.
func (r *runner) e12() {
	// Small cells over a dense graph make the rule-3 intersections large
	// enough for q to bind at this scale.
	g := gen.Gnp(500, 0.08, r.seed.Derive(0x121))
	t := stats.NewTable("q", "|H|", "max stretch", "connectivity")
	for _, q := range []int{1, 4, 32, 256} {
		cfg := spanner.KConfig{Config: spanner.Config{Memo: true}, L: 8, CenterProb: 0.2, Q: q}
		lca := spanner.NewSpannerKConfig(oracle.New(g), 2, r.seed, cfg)
		h, _ := core.BuildSubgraph(g, lca)
		conn := "ok"
		if err := core.VerifyConnectivityPreserved(g, h); err != nil {
			conn = "BROKEN"
		}
		t.AddRowf("%d|%d|%d|%s", q, h.M(), core.ExactMaxStretch(g, h), conn)
	}
	r.print(t)
	r.note("\nShape check: size grows and stretch falls as q increases; connectivity is unconditional at every q (Lemma 4.12 does not use the rank argument).")
}

// e13 measures the d-choice load-balancing LCA: max load and probe cost
// per placement query as d grows (the power-of-two-choices effect, one of
// the original LCA applications).
func (r *runner) e13() {
	const n = 5000
	t := stats.NewTable("d", "max load", "theory shape", "mean probes/query")
	for _, d := range []int{1, 2, 4} {
		table := balls.NewChoiceTable(n, n, d, r.seed.Derive(uint64(d)))
		a := balls.New(table, r.seed.Derive(0x131))
		worst := 0
		for bin := 0; bin < table.Bins(); bin++ {
			if l := a.LoadOf(bin); l > worst {
				worst = l
			}
		}
		// Probe cost per fresh query, sampled on a new instance.
		fresh := balls.New(table, r.seed.Derive(0x131))
		before := table.Probes()
		const queries = 200
		prg := rnd.NewPRG(r.seed.Derive(0x132))
		for i := 0; i < queries; i++ {
			fresh.QueryBall(prg.Intn(n))
		}
		mean := float64(table.Probes()-before) / queries
		shape := "Theta(log n/log log n)"
		if d > 1 {
			shape = "log log n/log d + O(1)"
		}
		t.AddRowf("%d|%d|%s|%.0f", d, worst, shape, mean)
	}
	r.print(t)
	r.note("\nShape check: one extra choice collapses the max load — the power of two choices, answered per ball by a local query.")
}

// e9 sweeps k for the O(k^2)-spanner.
func (r *runner) e9() {
	g := gen.Torus(32, 32)
	t := stats.NewTable("k", "|H|", "size bound n^{1+1/k}", "max stretch", "stretch bound O(k^2)")
	for _, k := range []int{1, 2, 3, 4} {
		cfg := spanner.KConfig{Config: spanner.Config{Memo: true}, L: 40, CenterProb: 0.03}
		s := spanner.NewSpannerKConfig(oracle.New(g), k, r.seed, cfg)
		h, _ := core.BuildSubgraph(g, s)
		got := core.ExactMaxStretch(g, h)
		t.AddRowf("%d|%d|%.0f|%d|%d", k, h.M(), math.Pow(float64(g.N()), 1+1/float64(k)), got, k*k)
	}
	r.print(t)
}
