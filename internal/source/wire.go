package source

// The probe wire protocol: how one process answers another's adjacency
// probes, so any lcaserve instance (or anything mounting these handlers)
// can act as a network shard for a Remote or Sharded source.
//
//	GET  /probe?op=degree|neighbor|adjacency&a=A[&b=B][&source=NAME]
//	GET  /probe?op=randomedge&seed=S[&source=NAME]
//	GET  /probe?op=rowfull&a=A[&source=NAME]
//	POST /probe[?source=NAME]      {"probes":[{"op":"rowfull","a":5},...]}
//	GET  /probe/meta[?source=NAME] {"n":N[,"m":M][,"max_degree":D][,"random_edge":true],"row_full":true}
//
// Answers keep the Source interface's conventions exactly (-1 for
// out-of-range neighbor indices and non-edges), so remote probing is
// transparent: an LCA cannot tell a network shard from a local backend,
// and probe counts are identical. /probe/meta is O(1) by construction —
// the optional m, max_degree and random_edge fields appear only when the
// backing source has the EdgeCounter / DegreeBounder / RandomEdger
// capability, never from O(n) probing. Every shard serves the rowfull
// op and says so with row_full, and the POST batch form carries rowfull
// probes only: rows are the one batched unit. Errors use the same JSON
// envelope as internal/serve: {"error": ..., "status": ...}.
//
// op=randomedge samples a uniform edge in canonical (u < v) orientation,
// answering {"u":U,"v":V}. It is seeded: the shard derives a fresh PRG
// from the client-supplied seed, so equal seeds answer equal edges on
// every replica — the property that lets a Remote expose the RandomEdger
// capability deterministically. It is GET-only, like the scalar ops.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"lca/internal/rnd"
	"lca/internal/trace"
)

// Wire names of the probe operations.
const (
	OpDegree    = "degree"
	OpNeighbor  = "neighbor"
	OpAdjacency = "adjacency"
	// OpRandomEdge is the seeded random-edge extension (GET-only).
	OpRandomEdge = "randomedge"
	// OpRowFull answers a vertex's degree and its full neighbor row in one
	// probe (answer = the degree, row = the neighbors in list order). It
	// is the only op a POST batch carries, and every shard serves it (the
	// row_full meta flag).
	OpRowFull = "rowfull"
)

// MaxProbeBatch caps the probe count of one POST /probe request; larger
// batches are a 400, never an unbounded allocation.
const MaxProbeBatch = 1 << 16

// maxProbeBody bounds the batch request body (MaxProbeBatch probes at a
// generous ~64 bytes of JSON each).
const maxProbeBody = MaxProbeBatch * 64

// ProbeReq is one probe on the wire. A holds the probed vertex (Degree,
// Neighbor, RowFull) or the list owner u (Adjacency); B holds the
// neighbor index (Neighbor) or the sought vertex v (Adjacency) and is
// ignored for Degree and RowFull.
type ProbeReq struct {
	Op string `json:"op"`
	A  int    `json:"a"`
	B  int    `json:"b,omitempty"`
}

// The answer bodies optionally carry the shard's server-side spans back
// to a traced client (the X-LCA-Trace contract, docs/WIRE.md): Trace is
// present exactly when the request carried a well-formed trace header.
// Span ids in it are the shard's own; the client renumbers and grafts
// them under its rpc span (trace.Tracer.Merge).
type probeAnswer struct {
	Answer int `json:"answer"`
	// Row carries the full neighbor row on op=rowfull (Answer is its
	// length, the degree) — and, under attest=1, the committed row of the
	// probed vertex on every op, so the client can check the scalar
	// answer against the verified row.
	Row []int `json:"row,omitempty"`
	// Proof is the Merkle inclusion proof of Row against the shard's
	// advertised commitment; present exactly when the request carried
	// attest=1 and the probed vertex is in range.
	Proof []string     `json:"proof,omitempty"`
	Trace []trace.Span `json:"trace,omitempty"`
}

// randomEdgeAnswer is the op=randomedge body: one uniform edge in
// canonical (u < v) orientation.
type randomEdgeAnswer struct {
	U     int          `json:"u"`
	V     int          `json:"v"`
	Trace []trace.Span `json:"trace,omitempty"`
}

type probeBatchReq struct {
	Probes []ProbeReq `json:"probes"`
}

type probeBatchAnswer struct {
	// Answers holds each probed vertex's degree, index-aligned with the
	// request's rowfull probes.
	Answers []int `json:"answers"`
	// Rows is index-aligned with the request: the full neighbor row per
	// probe, of the length its answers entry gives.
	Rows [][]int `json:"rows,omitempty"`
	// Proofs is index-aligned with the request under attest=1: each
	// entry is the Merkle inclusion proof of the matching Rows entry.
	// Absent without attest=1.
	Proofs [][]string   `json:"proofs,omitempty"`
	Trace  []trace.Span `json:"trace,omitempty"`
}

func (a *probeAnswer) traceSpans() []trace.Span      { return a.Trace }
func (a *randomEdgeAnswer) traceSpans() []trace.Span { return a.Trace }
func (a *probeBatchAnswer) traceSpans() []trace.Span { return a.Trace }

// shardMaxSpans caps the spans one probe request records server-side —
// enough for a batch span plus nested upstream rpc spans on a multi-hop
// fleet, bounded so a traced batch cannot inflate the answer unboundedly.
const shardMaxSpans = 256

// shardTracer returns a tracer for one probe request when the client
// sent well-formed trace context in X-LCA-Trace, nil otherwise (the
// untraced fast path). Malformed headers are ignored, never an error —
// tracing is best-effort by contract.
func shardTracer(r *http.Request) *trace.Tracer {
	id, _, ok := trace.ParseHeader(r.Header.Get(trace.Header))
	if !ok {
		return nil
	}
	return trace.New(id, shardMaxSpans)
}

// probeMeta is the /probe/meta body: the O(1) facts a Remote needs at
// construction. M, MaxDegree and RandomEdge are present only when the
// shard's source has the corresponding capability; RowFull is always
// true, and OpenRemote refuses a shard without it; Shards carries the
// per-replica health of a sharded source (HealthReporter), so operators
// can watch a fleet's failover state through any shard that fronts it.
type probeMeta struct {
	N          int  `json:"n"`
	M          *int `json:"m,omitempty"`
	MaxDegree  *int `json:"max_degree,omitempty"`
	RandomEdge bool `json:"random_edge,omitempty"`
	RowFull    bool `json:"row_full"`
	// Commitment is the hex Merkle root over the graph's adjacency rows,
	// present when the shard's source carries the Attestor capability:
	// the flag that tells clients they may pin the root and request
	// attest=1 row proofs.
	Commitment string        `json:"commitment,omitempty"`
	Shards     []ShardHealth `json:"shards,omitempty"`
}

// metaOf snapshots src's O(1) summary capabilities through the dynamic
// capability view (static interfaces as the fallback). Any shard serves
// rowfull: through src's RowFetcher when it has one, else by reading
// the row cell by cell (fetchRowsFrom).
func metaOf(src Source) probeMeta {
	meta := probeMeta{N: src.N(), RowFull: true}
	if mc, ok := EdgeCounterOf(src); ok {
		m := mc.M()
		meta.M = &m
	}
	if db, ok := DegreeBounderOf(src); ok {
		d := db.MaxDegree()
		meta.MaxDegree = &d
	}
	if _, ok := RandomEdgerOf(src); ok {
		meta.RandomEdge = true
	}
	if at, ok := AttestorOf(src); ok {
		meta.Commitment = at.Commitment().String()
	}
	if health, ok := HealthOf(src); ok {
		meta.Shards = health
	}
	return meta
}

// attestParam reports whether the request asked for row proofs, and
// resolves the source's Attestor when it did. A shard without the
// capability answers 400 — the client must only send attest=1 after
// seeing the commitment flag in /probe/meta.
func attestParam(r *http.Request, src Source) (Attestor, bool, int, string) {
	if r.URL.Query().Get("attest") != "1" {
		return nil, false, 0, ""
	}
	at, ok := AttestorOf(src)
	if !ok {
		return nil, false, http.StatusBadRequest,
			"source carries no commitment (no attest capability; check /probe/meta)"
	}
	return at, true, 0, ""
}

// wireError is the shared JSON error envelope ({"error","status"}), the
// same shape internal/serve uses, so shard and query endpoints fail alike.
type wireError struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func writeWireJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeWireErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeWireJSON(w, status, wireError{Error: fmt.Sprintf(format, args...), Status: status})
}

// answerProbeRecover is answerProbe behind a *ProbeError recover: when
// the probed source is itself network-backed (a shard fronting other
// shards) and its upstream dies, the handler must answer a 502 envelope,
// not crash the connection.
func answerProbeRecover(src Source, op string, a, b int) (ans, status int, msg string) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*ProbeError)
			if !ok {
				panic(r)
			}
			ans, status, msg = 0, http.StatusBadGateway, pe.Error()
		}
	}()
	return answerProbe(src, op, a, b)
}

// validateProbe applies the wire protocol's checks without probing:
// unknown ops and out-of-range probed vertices are the client's fault.
// Adjacency endpoints need no validation — out of range means "not an
// edge", answered -1.
func validateProbe(src Source, p ProbeReq) (status int, msg string) {
	switch p.Op {
	case OpDegree, OpNeighbor, OpRowFull:
		if n := src.N(); p.A < 0 || p.A >= n {
			return http.StatusBadRequest, fmt.Sprintf("probe %s: vertex %d out of range [0,%d)", p.Op, p.A, n)
		}
	case OpAdjacency:
	default:
		return http.StatusBadRequest, fmt.Sprintf("unknown probe op %q (want %s, %s, %s or %s)", p.Op, OpDegree, OpNeighbor, OpAdjacency, OpRowFull)
	}
	return 0, ""
}

// answerProbe answers one wire probe against src. A non-zero status marks
// a protocol error; Adjacency with either endpoint out of range answers
// -1 — "not an edge" is the honest model answer and keeps clients from
// having to pre-validate.
func answerProbe(src Source, op string, a, b int) (ans, status int, msg string) {
	if status, msg := validateProbe(src, ProbeReq{Op: op, A: a, B: b}); status != 0 {
		return 0, status, msg
	}
	switch op {
	case OpDegree:
		return src.Degree(a), 0, ""
	case OpNeighbor:
		return src.Neighbor(a, b), 0, ""
	}
	if n := src.N(); a < 0 || a >= n || b < 0 || b >= n {
		return -1, 0, ""
	}
	return src.Adjacency(a, b), 0, ""
}

// ServeProbeMeta answers GET /probe/meta for src. Callers that serve
// several named sources resolve ?source= themselves and pass the winner.
func ServeProbeMeta(w http.ResponseWriter, r *http.Request, src Source) {
	writeWireJSON(w, http.StatusOK, metaOf(src))
}

// ServeProbe answers one GET /probe request for src. A request carrying
// trace context records a shard:<op> span (nested upstream spans
// included when src is itself network-backed) and returns the spans in
// the answer.
func ServeProbe(w http.ResponseWriter, r *http.Request, src Source) {
	q := r.URL.Query()
	op := q.Get("op")
	tr := shardTracer(r)
	if op == OpRandomEdge {
		// randomedge is unattested: its answer is a sample, not a row fact;
		// clients verify it post-hoc via an attested adjacency probe.
		serveRandomEdge(w, q.Get("seed"), src, tr)
		return
	}
	at, attested, status, msg := attestParam(r, src)
	if status != 0 {
		writeWireErr(w, status, "%s", msg)
		return
	}
	a, err := wireInt(q.Get("a"), "a")
	if err != nil {
		writeWireErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	b := 0
	if raw := q.Get("b"); raw != "" {
		if b, err = wireInt(raw, "b"); err != nil {
			writeWireErr(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else if op == OpNeighbor || op == OpAdjacency {
		// A forgotten index must not silently read as "the 0th neighbor".
		writeWireErr(w, http.StatusBadRequest, "probe %s requires parameter \"b\"", op)
		return
	}
	if op == OpRowFull {
		serveRowFull(w, src, a, at, tr)
		return
	}
	view := src
	var h trace.Handle
	if tr != nil {
		h = tr.Start(shardSpanOp(op), a)
		tr.Push(h)
		view = TracedView(src, tr)
	}
	ans, status, msg := answerProbeRecover(view, op, a, b)
	if tr != nil {
		tr.Pop()
		tr.End(h)
	}
	if status != 0 {
		writeWireErr(w, status, "%s", msg)
		return
	}
	body := probeAnswer{Answer: ans, Trace: tr.Spans()}
	if attested && a >= 0 && a < src.N() {
		// The committed row of the probed vertex plus its proof: the
		// client verifies the row against its pinned root and checks the
		// scalar answer against the verified row.
		body.Row, body.Proof = at.ProveRow(a)
	}
	writeWireJSON(w, http.StatusOK, body)
}

// ServeProbeBatch answers one POST /probe request for src: a batch of
// rowfull probes, answered with each vertex's degree and row,
// index-aligned with the request. A probe of any other op is a 400,
// checked before any probe is answered.
func ServeProbeBatch(w http.ResponseWriter, r *http.Request, src Source) {
	var req probeBatchReq
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxProbeBody))
	if err := dec.Decode(&req); err != nil {
		writeWireErr(w, http.StatusBadRequest, "malformed probe batch: %v", err)
		return
	}
	if len(req.Probes) > MaxProbeBatch {
		writeWireErr(w, http.StatusBadRequest, "probe batch of %d exceeds the maximum %d", len(req.Probes), MaxProbeBatch)
		return
	}
	at, attested, status, msg := attestParam(r, src)
	if status != 0 {
		writeWireErr(w, status, "%s", msg)
		return
	}
	vs := make([]int, len(req.Probes))
	for i, p := range req.Probes {
		if p.Op != OpRowFull {
			writeWireErr(w, http.StatusBadRequest, "probe %d: op %q cannot be batched; a batch carries %s probes only", i, p.Op, OpRowFull)
			return
		}
		if status, msg := validateProbe(src, p); status != 0 {
			writeWireErr(w, status, "probe %d: %s", i, msg)
			return
		}
		vs[i] = p.A
	}
	tr := shardTracer(r)
	view := src
	var h trace.Handle
	if tr != nil {
		h = tr.Start("shard:batch", -1)
		tr.Tag(h, fmt.Sprintf("batch=%d", len(req.Probes)))
		tr.Push(h)
		view = TracedView(src, tr)
	}
	rows, status, msg := fetchRowsFrom(view, vs)
	if tr != nil {
		tr.Pop()
		tr.End(h)
	}
	if status != 0 {
		writeWireErr(w, status, "%s", msg)
		return
	}
	body := probeBatchAnswer{Answers: make([]int, len(rows)), Rows: rows, Trace: tr.Spans()}
	for i, row := range rows {
		body.Answers[i] = len(row)
	}
	if attested {
		// Each row keeps the one the fetch path served (a corrupted fetch
		// must stay visible to the verifier), gaining only its proof.
		body.Proofs = make([][]string, len(vs))
		for i, v := range vs {
			_, body.Proofs[i] = at.ProveRow(v)
		}
	}
	writeWireJSON(w, http.StatusOK, body)
}

// serveRowFull answers GET /probe?op=rowfull&a=V: the degree plus the
// full neighbor row in one answer — plus the row's inclusion proof when
// at is non-nil (attest=1). The served row stays the fetch path's own,
// so a corrupted fetch remains visible to the verifier.
func serveRowFull(w http.ResponseWriter, src Source, a int, at Attestor, tr *trace.Tracer) {
	if status, msg := validateProbe(src, ProbeReq{Op: OpRowFull, A: a}); status != 0 {
		writeWireErr(w, status, "%s", msg)
		return
	}
	view := src
	var h trace.Handle
	if tr != nil {
		h = tr.Start(shardSpanOp(OpRowFull), a)
		tr.Push(h)
		view = TracedView(src, tr)
	}
	rows, status, msg := fetchRowsFrom(view, []int{a})
	if tr != nil {
		tr.Pop()
		tr.End(h)
	}
	if status != 0 {
		writeWireErr(w, status, "%s", msg)
		return
	}
	row := rows[0]
	body := probeAnswer{Answer: len(row), Row: row, Trace: tr.Spans()}
	if at != nil {
		_, body.Proof = at.ProveRow(a)
	}
	writeWireJSON(w, http.StatusOK, body)
}

// fetchRowsFrom answers rowfull probes against src (readRows).
// Upstream failures (*ProbeError, from either path) answer the 502
// envelope, matching answerProbeRecover.
func fetchRowsFrom(src Source, vs []int) (rows [][]int, status int, msg string) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*ProbeError)
			if !ok {
				panic(r)
			}
			rows, status, msg = nil, http.StatusBadGateway, pe.Error()
		}
	}()
	rows, err := readRows(src, vs)
	if err != nil {
		return nil, http.StatusBadGateway, err.Error()
	}
	return rows, 0, ""
}

// readRows reads the full rows of vs from src: through its RowFetcher
// capability when it has one, else cell by cell — free reads on a local
// backend, which is the only kind without the capability. A
// network-backed src may panic with *ProbeError.
func readRows(src Source, vs []int) ([][]int, error) {
	if rf, ok := RowFetcherOf(src); ok {
		return rf.FetchRows(vs)
	}
	rows := make([][]int, len(vs))
	for i, v := range vs {
		row := make([]int, src.Degree(v))
		for j := range row {
			row[j] = src.Neighbor(v, j)
		}
		rows[i] = row
	}
	return rows, nil
}

// serveRandomEdge answers op=randomedge: a uniform edge drawn from a PRG
// derived from the client's seed, so equal seeds answer equally on every
// replica of the graph. Refused (400) when the backing source lacks the
// RandomEdger capability or provably has no edges; a sampler panic on an
// effectively edgeless source (string payload by the RandomEdge
// convention) is also the client's 400, not a crashed connection.
func serveRandomEdge(w http.ResponseWriter, rawSeed string, src Source, tr *trace.Tracer) {
	view := src
	if tr != nil {
		view = TracedView(src, tr)
	}
	re, ok := RandomEdgerOf(view)
	if !ok {
		writeWireErr(w, http.StatusBadRequest, "source does not support probe op %q (no RandomEdge capability)", OpRandomEdge)
		return
	}
	if rawSeed == "" {
		writeWireErr(w, http.StatusBadRequest, "probe %s requires parameter \"seed\"", OpRandomEdge)
		return
	}
	seed, err := strconv.ParseUint(rawSeed, 10, 64)
	if err != nil {
		writeWireErr(w, http.StatusBadRequest, "probe parameter \"seed\": %q is not an unsigned integer", rawSeed)
		return
	}
	if mc, ok := EdgeCounterOf(src); ok && mc.M() == 0 {
		writeWireErr(w, http.StatusBadRequest, "probe %s: source has no edges", OpRandomEdge)
		return
	}
	var h trace.Handle
	if tr != nil {
		h = tr.Start(shardSpanOp(OpRandomEdge), -1)
		tr.Push(h)
	}
	u, v, status, msg := sampleRandomEdge(re, seed)
	if tr != nil {
		tr.Pop()
		tr.End(h)
	}
	if status != 0 {
		writeWireErr(w, status, "%s", msg)
		return
	}
	writeWireJSON(w, http.StatusOK, randomEdgeAnswer{U: u, V: v, Trace: tr.Spans()})
}

// sampleRandomEdge draws the edge behind a recover: string panics mark
// edgeless sources (client fault), *ProbeError marks a dead upstream
// (502); anything else is a genuine defect and propagates.
func sampleRandomEdge(re RandomEdger, seed uint64) (u, v, status int, msg string) {
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case string:
				u, v, status, msg = 0, 0, http.StatusBadRequest, fmt.Sprintf("probe %s: %s", OpRandomEdge, e)
			case *ProbeError:
				u, v, status, msg = 0, 0, http.StatusBadGateway, e.Error()
			default:
				panic(r)
			}
		}
	}()
	u, v = re.RandomEdge(rnd.NewPRG(rnd.Seed(seed)))
	if u > v {
		u, v = v, u
	}
	return u, v, 0, ""
}

func wireInt(raw, name string) (int, error) {
	if raw == "" {
		return 0, fmt.Errorf("missing probe parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("probe parameter %q: %q is not an integer", name, raw)
	}
	return v, nil
}

// NewProbeHandler returns a standalone shard handler over one fixed
// source: the minimal process shape that can back a Remote. lcaserve
// mounts the Serve* functions against its named-source table instead, so
// a full query server doubles as a shard.
func NewProbeHandler(src Source) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /probe/meta", func(w http.ResponseWriter, r *http.Request) {
		ServeProbeMeta(w, r, src)
	})
	mux.HandleFunc("GET /probe", func(w http.ResponseWriter, r *http.Request) {
		ServeProbe(w, r, src)
	})
	mux.HandleFunc("POST /probe", func(w http.ResponseWriter, r *http.Request) {
		ServeProbeBatch(w, r, src)
	})
	return mux
}
