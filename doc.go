// Package lca is a library of Local Computation Algorithms (LCAs, also
// known as the centralized-local model): algorithms that answer queries
// about a single, globally consistent solution — a spanner, a maximal
// independent set, a matching, a coloring — while probing only a sublinear
// portion of the input graph and storing nothing but a short random seed.
//
// # The model
//
// The input graph is reachable only through an adjacency-list oracle
// (Oracle) answering Neighbor, Degree and Adjacency probes. An LCA is
// instantiated from an oracle and a Seed; all of its random decisions are
// derived from bounded-independence hash families over vertex IDs, so any
// two queries — or two independently built instances with the same seed —
// agree on one fixed global solution. Probe counts are the complexity
// measure and can be read back from every algorithm.
//
// # Sessions and the algorithm registry
//
// The primary API is the Session. Every algorithm self-registers a
// descriptor in an internal registry — name, query kind (edge, vertex or
// label), tunable parameters, constructor — and a Session dispatches to
// any of them by name, owning the oracle plumbing, probe accounting, probe
// budgets and parallel assembly:
//
//	g := lca.Gnp(100000, 0.01, 7)          // or any graph behind an Oracle
//	s := lca.NewSession(g,
//		lca.WithSeed(42),                   // replicas sharing a seed agree
//		lca.WithProbeBudget(200000),        // hard per-query probe cap
//		lca.WithParam("k", 4),              // parameters, by name
//	)
//	e := g.Edges()[0]                       // membership is defined for input edges
//	in, err := s.Edge("spanner3", e.U, e.V) // ~n^{3/4} probes, no global work
//	set, err := s.Vertex("mis", 9000)
//	color, err := s.Label("coloring", 17)
//	h, stats, err := s.BuildSubgraph("spannerk") // full assembly, parallel
//	est, err := s.EstimateFraction("mis", 2000, 0.05)
//
// Session.Algos lists the catalog; the same registry drives the HTTP
// server (cmd/lcaserve, with /algos discovery), the benchmark suite
// (cmd/lcabench, including the REG and SRC sweeps) and the invariant
// auditor (cmd/lcaverify) — registering a new algorithm makes it appear on
// all of them with no further wiring.
//
// # Probe sources: inputs too large to read
//
// The input side is pluggable too. A Source is anything answering the
// model's four probes (N, Degree, Neighbor, Adjacency); a Session can run
// over any of them, and the whole point of the model — answering queries
// about inputs too large to ever read — becomes operational:
//
//	src, err := lca.OpenSource("ring:n=1000000000", 7) // 24 bytes of state
//	s := lca.NewSessionFromSource(src, lca.WithSeed(42))
//	in, err := s.Vertex("mis", 123_456_789)  // O(1) probes, zero O(n) work
//	est, err := s.EstimateFraction("matching", 2000, 0.05)
//
// Spec strings name four backend families (see OpenSource and
// SourceFamilies):
//
//   - Implicit deterministic generators, synthesized per probe from the
//     parameters and seed with no per-vertex state: ring:n=N,
//     grid:rows=R,cols=C, torus:rows=R,cols=C, circulant:n=N,d=D
//     (hash-based d-regular) and blockrandom:n=N,d=D (a G(n, d/n)-style
//     random family from HMAC-style per-block derived seeds).
//
//   - In-memory graphs: a bare path or edgelist:path loads an edge-list
//     file; NewSession(g) is the same adapter for programmatic graphs.
//
//   - Disk-backed CSR (csr:path): a graph saved once — lcagen -format
//     csr, or graph.WriteCSR/WriteCSRStream — and probed cold through
//     positioned reads (Degree: 1 read, Neighbor: 2, Adjacency: binary
//     search), with O(1) resident state.
//
//   - Network shards (remote:, sharded:): every lcaserve instance
//     answers the probe wire protocol (GET/POST /probe, /probe/meta), so
//     remote:http://host:port probes another process's source — with
//     connection reuse, per-request timeouts and retry-with-backoff —
//     and sharded:remote:a,remote:b,... consistent-hashes vertices
//     across replica shards (";"-separated when sub-specs contain
//     commas). The fleet caches nothing; WithRowCache caches whole rows
//     above it:
//
//     src, err := lca.OpenSource("sharded:remote:http://a:8080;remote:http://b:8080", 7)
//     s := lca.NewSessionFromSource(src, lca.WithSeed(42), lca.WithRowCache(65536))
//     defer s.Close()                        // releases shard connections
//     in, err := s.Vertex("mis", 123456789)  // probes cross the network transparently
//
// Point queries and EstimateFraction work on every source — edge-kind
// estimation included on network backends, via the wire protocol's
// seeded op=randomedge extension. The batch Build methods enumerate all
// elements, so they require an in-memory graph and return
// ErrNotMaterialized otherwise; use internal/source.Materialize (or
// lcaverify -maxn) to audit small instances of a source family. The HTTP
// server opens sources at runtime (POST /sources?name=...&spec=...) and
// serves point queries against any of them by name. Call Session.Close
// when done: it releases whatever the source holds (CSR file handles,
// remote connections). All backends answer identically under the Source
// contract — internal/source's TestConformance suite enforces it
// (batched probing included), and cross-backend goldens pin
// byte-identical answers whether a probe is answered from RAM, disk or
// the network, with prefetching on or off.
//
// # Neighborhood exploration and prefetching
//
// An LCA query explores a small neighborhood, so over a network source
// every scalar probe costing one round trip is the wrong transport. The
// oracle layer's exploration API fixes the unit: Neighbors(v) fetches one
// full adjacency row, Prefetch(vs...) hints rows about to be read, and
// the row tier turns both into single round trips (a POST /probe of
// rowfull probes) on remote: and sharded: backends, serving subsequent
// scalar probes from the cached rows. Enable it per session:
//
//	src, err := lca.OpenSource("sharded:remote:http://a:8080,remote:http://b:8080", 7)
//	s := lca.NewSessionFromSource(src,
//		lca.WithSeed(42),
//		lca.WithPrefetch(true), // rows are fetched in batches, not cell by cell
//	)
//	in, err := s.Vertex("mis", 123456)
//	ps, _ := s.ProbeStats("mis")     // ps.RoundTrips: the transport bill
//
// With the row tier, each neighborhood an algorithm explores costs at
// most one round trip. Coloring goes further: before its recursion
// runs, it fetches
// the whole DAG its query will read one level per round trip
// (oracle.Explore), so its trips follow the DAG's depth, not its size.
// The planner is off over local sources, where there is no transport to
// save, and under WithProbeBudget, where free hints would fetch past
// the budget.
//
// Answers, probe counts and probe budgets are identical with or without
// prefetching — budgets charge per cell read, and round trips are
// accounted separately (ProbeStats.RoundTrips, ProbeStats.Batches; the
// planner's levels are not counted as batches) — so it is safe on any
// source; local backends simply have nothing to collapse. The HTTP
// server exposes the same switch per query (&prefetch=1, answers carry
// round_trips), and the lcabench NET sweep reports mean rt/query so the
// collapse lands in BENCH artifacts.
//
// Migrating algorithm-style code from scalar loops: a full-row scan
//
//	deg := o.Degree(v)
//	for i := 0; i < deg; i++ {
//		w := o.Neighbor(v, i)
//		...
//	}
//
// becomes one exploration, identical in probe count and answers:
//
//	for _, w := range oracle.Neighbors(o, v) { ... }
//
// and a partial scan (prefix, early break, scattered Adjacency probes
// into one row) keeps its loop but hints the row first:
//
//	oracle.Prefetch(o, v)   // free; one batched round trip on network backends
//	deg := o.Degree(v)      // served from the primed row
//	...
//
// Every built-in algorithm (mis, coloring, matching, approxmatching, the
// three spanner families, balls, the estimators) already speaks this API.
//
// # The hot local path
//
// When the graph lives on local disk, the probe bill is paid in reads
// and allocations, not round trips. Two switches tighten that path
// without changing a single answer. Opening a CSR file with the mmap
// knob ("csr:web.csr?mmap=1") maps it read-only instead of issuing a
// positioned read per probe — the spec falls back to the cold reader
// where mmap is unavailable — and WithRowCache routes the session's
// probes through the row tier with a shared bounded L2 (a per-chain
// arena-backed L1 over it; WithPrefetch selects the same tier without
// the L2), so steady-state probes of a warm working set allocate
// nothing:
//
//	src, err := lca.OpenSource("csr:web.csr?mmap=1", 7)
//	s := lca.NewSessionFromSource(src,
//		lca.WithSeed(42),
//		lca.WithRowCache(65536), // shared L2 slots; L1 is per query chain
//	)
//	in, err := s.Vertex("mis", 123456)
//
// Answers, probe counts and probe budgets are identical with the caches
// on — rows of a fixed graph are pure values, so caching them is
// invisible except in the bill. The mmap reader also reports probe
// locality (page_touches, local_hits) through QueryStats and serve
// answers, and the lcabench SRC sweep prints ns/probe and allocs/probe
// per backend so the zero stays pinned in BENCH artifacts.
//
// # Shard health, failover and hedging: a runbook
//
// A sharded: fleet survives replica failure without operator action, but
// the mechanics are worth knowing when a page fires. The state machine
// (internal/source, health.go): every replica starts live; a probe
// failure that is the shard's fault (transport error, 5xx, 429) counts
// toward a consecutive-failure threshold (default 3) and the failing
// probe is immediately retried on the next replica in the vertex's
// rendezvous ranking, so queries keep answering — correctly, because
// replicas of one graph are interchangeable — while the failure is
// still being detected. At the threshold the shard is marked dead: its
// keys route to the next-ranked live replica and a background reviver
// re-probes the shard's /probe/meta (the health plane; never a data
// probe) half-open with jittered exponential backoff, reviving it on
// the first success. Queries error only when no live replica remains.
//
// An optional hedge delay (the hedge=DURATION spec item, e.g.
// sharded:remote:a;remote:b;hedge=20ms) additionally races tail
// latency: a probe still unanswered after the delay is fired again at
// the second-ranked live replica, the first response wins and the loser
// is cancelled. Slow is not down — hedging alone never marks a shard
// dead — but a hedge that masked a hard failure still records it, so a
// dead replica cannot hide behind its faster peer. Only scalar probes
// are hedged: row fetches (FetchRows, the row tier's miss path) fail
// over group by group but are never hedged, so a slow replica delays
// them until it answers or fails.
//
// What to watch. Per-query: ProbeStats/QueryStats carry RoundTrips,
// Failovers and Hedges (serve answers mirror them as round_trips,
// failovers, hedges — exact per request, not bled across concurrent
// requests). Per-fleet: GET /probe/meta and GET /sources list each
// replica's state (live, dead, probing), consecutive failures and last
// error. Symptom table: failovers rising + a shard dead in /sources →
// a replica is down, capacity is degraded but answers are unaffected;
// hedges rising with no failovers → a replica is slow (GC, page cache
// cold, noisy neighbor); "no live replica" errors → the whole fleet is
// unreachable from this client, look at the network before the shards.
// Process-wide, GET /metrics aggregates the same signals as counters
// and latency/probe histograms (serve_failovers_total,
// serve_query_latency_us{kind=...}, per-tenant rejection counters);
// cmd/lcaload drives measured query load against a server to read them
// under traffic. A runnable end-to-end walkthrough is
// ExampleOpenSource_shardedFailover.
//
// The failure model above covers crashed and slow replicas; the trust
// plane (internal/attest) covers lying ones. Wrap a served source in
// source.NewAttested (lcaserve -attest) and its shard advertises a
// 32-byte Merkle commitment over the adjacency rows on /probe/meta;
// clients that pin it (remote:URL#root=HEX, or source.WithCommitment)
// verify every probe answer against a per-row inclusion proof and
// surface corruption as the typed source.ErrAttestation. A fleet treats
// a failed verification as Byzantine, not broken: the replica enters
// the sticky "distrusted" state — routed around like a dead shard but
// never revived, since a healthy health plane cannot prove an honest
// data plane — and answers keep flowing, byte-identical to a healthy
// fleet. Watch attest_fail and proof_bytes in QueryStats,
// serve_attest_failures_total in /metrics, and the distrusted state in
// /sources; Sharded.SpotCheck cross-checks replicas when no commitment
// exists. For after-the-fact forensics, lcaserve -audit-log FILE
// -audit-key SECRET appends one HMAC-chained record per executed query
// (request, seed, probe transcript, answer hash, row proofs), and
// lcaverify -replay FILE -audit-key SECRET re-executes the log offline
// — no graph, no network — proving every served answer reproducible
// bit-for-bit; tampering, truncation or reordering breaks the chain.
// lcaserve -chaos lie serves a deliberately corrupted replica for
// drills.
//
// When the aggregates say "slow" but not why, switch planes: append
// trace=1 to the query (or run lcaserve with -trace-sample N /
// -trace-slow DUR) and read the span tree — query root, oracle-layer
// spans with cache-hit and budget tags, one rpc span per shard round
// trip with failover/hedge-won outcomes, and the shard's own spans
// stitched in over the X-LCA-Trace wire header. Trees are retained on
// GET /traces (slow-query captures under /traces?slow=1, one tree on
// /traces/{id}); library code gets the same via WithTracer. Structured
// request logs (lcaserve -log-format json) carry the trace_id for the
// pivot. For CPU or heap suspicions, lcaserve -debug-addr starts a
// separate listener — firewall it — serving net/http/pprof profiles
// under /debug/pprof/ and a /debug/vars runtime snapshot (goroutines,
// heap, GC) for the first minute of any incident.
//
// # Further documentation
//
// ARCHITECTURE.md maps the layers (source → oracle → algorithms →
// registry/session → serve/CLIs), tabulates every Source/Oracle
// capability per backend, and gives the full spec grammar in one table.
// docs/WIRE.md specifies the probe wire protocol (endpoints, op table,
// error envelope, status-code contract, health/meta fields) precisely
// enough to implement a third-party shard without reading wire.go.
//
// # What is implemented
//
// Spanners (Parter, Rubinfeld, Vakilian, Yodpinyanee 2019), as registry
// entries "spanner3", "spanner5", "spannerk", "sparse", "superspanner"
// and "spanner5mindeg":
//
//   - 3-spanners with ~O(n^{3/2}) edges and ~O(n^{3/4}) probes per edge
//     query, sublinear even on graphs of maximum degree Theta(n).
//   - 5-spanners with ~O(n^{4/3}) edges and ~O(n^{5/6}) probes.
//   - O(k^2)-stretch spanners with ~O(n^{1+1/k}) edges for bounded-degree
//     graphs, and the sparse-spanning-graph regime at k = ceil(log2 n).
//
// Classical sparse-regime LCAs (Rubinfeld-Tamir-Vardi-Xie, Alon et al.),
// as entries "mis", "matching", "vertexcover", "approxmatching" and
// "coloring", plus NewBallAssignment for d-choice load balancing.
//
// Applications and operations: Session.EstimateFraction and the
// EstimateVertexFraction/EstimateEdgeFraction helpers (Hoeffding-bounded
// solution-size estimates from sampled queries), parallel assembly
// (per-worker instances, bit-identical to serial), NewProbeLimiter /
// WithProbeBudget (hard probe budgets), the graph substrate and
// generators (Gnp, RandomRegular, ChungLu, ...), global baselines
// (BaswanaSen, GreedySpanner, ...), the assembly-and-verification harness
// (BuildSubgraph, VerifyStretch, ...), and the Theorem 1.3 lower-bound
// apparatus (SampleDPlus/SampleDMinus, BFSMeet).
//
// # Flat constructors (deprecated surface)
//
// The per-algorithm constructors (NewSpanner3, NewMIS, NewMatching, ...)
// predate the registry. They remain supported — now as thin wrappers that
// route through the registry — and are the right tool when a caller needs
// a concrete algorithm type or a custom oracle chain, but they are a
// deprecated surface for ordinary use: new code should reach algorithms
// through NewSession, which owns the oracle, budget and assembly plumbing
// and extends to newly registered algorithms automatically. No removal is
// planned; treat them as frozen.
//
// See examples/ for runnable end-to-end scenarios and DESIGN.md for the
// paper-to-module map.
package lca
