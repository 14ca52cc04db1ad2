package source

// Remote: a Source whose probes are answered by another process speaking
// the probe wire protocol (wire.go) — the backend that turns the library
// into a horizontally scalable service. One lcaserve replica can answer
// queries whose probes are served by another, and Sharded composes N of
// these into one consistent-hashed fleet with failover and hedging.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"lca/internal/attest"
	"lca/internal/rnd"
	"lca/internal/trace"
)

// ErrAttestation marks a probe answer that failed verification against a
// pinned graph commitment: the row proof did not fold to the root, or
// the scalar answer contradicted the verified row. It wraps into
// ProbeError.Err, and ProbeError.Temporary() treats it as failover-
// eligible — a lying replica is routed around like a dead one, except
// the fleet also distrusts it permanently (Sharded) instead of reviving
// it.
var ErrAttestation = errors.New("probe answer failed attestation against the pinned commitment")

// ProbeError is the panic payload raised by network-backed sources when a
// probe cannot be answered after all retries. The Source interface has no
// error returns — local backends cannot fail — so network failure
// surfaces as a typed panic that the Session layer (and internal/serve)
// recover into ordinary errors; code probing a Remote directly should do
// the same.
type ProbeError struct {
	// Shard is the base URL of the failing shard (or a fleet label).
	Shard string
	// Op, A, B identify the probe that failed.
	Op   string
	A, B int
	// Status is the HTTP status of a terminal protocol answer, 0 for
	// transport failures. Temporary() is derived from it.
	Status int
	// Err is the underlying transport or protocol error.
	Err error
}

func (e *ProbeError) Error() string {
	return fmt.Sprintf("source: shard %s: probe %s(%d,%d): %v", e.Shard, e.Op, e.A, e.B, e.Err)
}

func (e *ProbeError) Unwrap() error { return e.Err }

// Temporary reports whether the failure is the shard's fault (transport
// error, 5xx, 429) rather than the request's: only temporary failures
// justify failing the probe over to another replica — a 400 would just be
// answered 400 again.
func (e *ProbeError) Temporary() bool {
	if errors.Is(e.Err, ErrAttestation) {
		// A detected lie is the shard's fault: another replica may answer
		// honestly, so the probe is failover-eligible.
		return true
	}
	return e.Status == 0 || e.Status >= 500 || e.Status == http.StatusTooManyRequests
}

// statusError carries the HTTP status of a non-200 shard answer through
// the retry loop so ProbeError.Status can report it.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.status, e.msg) }

// statusOf extracts the terminal HTTP status from a probe failure chain
// (0 for pure transport errors).
func statusOf(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.status
	}
	return 0
}

// Remote probes a shard over HTTP. Construct with OpenRemote; the zero
// value is unusable. Safe for concurrent use: the underlying http.Client
// reuses pooled keep-alive connections across goroutines.
//
// Failed requests are retried with exponential backoff (transport errors,
// 5xx and 429 responses; protocol-level 4xx errors are not retried); a
// probe that still fails panics with *ProbeError, which Session queries
// and the HTTP server convert back into errors.
//
// Optional capabilities (EdgeCounter, DegreeBounder, RandomEdger) mirror
// the shard's /probe/meta and are exposed through the dynamic capability
// view (Caps; discover them with the *Of accessors), which always holds
// RowFetcher: every shard serves the rowfull op. Remote additionally
// implements Pinger (health-plane liveness checks for Sharded's reviver)
// and TripScoper (request-scoped round-trip attribution).
type Remote struct {
	base      string // scheme://host[:port], no trailing slash
	name      string // optional ?source= selector on the shard
	client    *http.Client
	ownClient bool          // we built the client: WithTimeout may mutate it
	timeout   time.Duration // requested WithTimeout, applied post-options
	retries   int
	backoff   time.Duration

	n               int
	m, maxDeg       int
	hasM, hasMaxDeg bool
	hasRE           bool
	// root is the pinned graph commitment (WithCommitment / #root=HEX in
	// the spec fragment). When pinned, every probe carries attest=1 and
	// every answer is verified against the root before use.
	root      attest.Root
	pinned    bool
	closeOnce sync.Once
	// attestFails counts answers that failed verification; proofBytes the
	// proof bytes transported — the AttestCounter capability.
	attestFails tripCount
	proofBytes  tripCount
	// requests counts logical shard requests (one per probe, batch or meta
	// fetch; retries of one request are not re-counted) — the
	// RoundTripCounter capability. Health-plane pings are not counted.
	requests tripCount
}

var (
	_ Source           = (*Remote)(nil)
	_ CapSource        = (*Remote)(nil)
	_ Closer           = (*Remote)(nil)
	_ RoundTripCounter = (*Remote)(nil)
	_ Pinger           = (*Remote)(nil)
	_ TripScoper       = (*Remote)(nil)
	_ AttestCounter    = (*Remote)(nil)
)

// RemoteOption configures a Remote at construction.
type RemoteOption func(*Remote)

// WithHTTPClient replaces the default client (5s per-request timeout,
// pooled keep-alive connections). The caller keeps ownership — the
// client is never mutated; Close only releases idle connections.
func WithHTTPClient(c *http.Client) RemoteOption {
	return func(r *Remote) {
		if c != nil {
			r.client = c
			r.ownClient = false
		}
	}
}

// WithTimeout sets the per-request timeout (default 5s). Ignored when a
// caller-owned client is supplied with WithHTTPClient (in either option
// order): that client's configuration belongs to the caller.
func WithTimeout(d time.Duration) RemoteOption {
	return func(r *Remote) {
		if d > 0 {
			r.timeout = d
		}
	}
}

// WithRetries sets how many times a failed probe request is retried
// (default 2, so 3 attempts in total). 0 disables retrying; negative is 0.
func WithRetries(n int) RemoteOption {
	return func(r *Remote) {
		if n < 0 {
			n = 0
		}
		r.retries = n
	}
}

// WithRetryBackoff sets the first retry's backoff (default 50ms); the k-th
// retry waits 2^(k-1) times as long.
func WithRetryBackoff(d time.Duration) RemoteOption {
	return func(r *Remote) {
		if d > 0 {
			r.backoff = d
		}
	}
}

// WithCommitment pins the shard's graph commitment: every probe is sent
// with attest=1 and its answer verified against root — a mismatch
// surfaces as a *ProbeError wrapping ErrAttestation instead of a wrong
// answer. The spec form is remote:URL#root=HEX. Opening fails when the
// shard does not advertise exactly this commitment in /probe/meta.
func WithCommitment(root attest.Root) RemoteOption {
	return func(r *Remote) {
		if !root.IsZero() {
			r.root = root
			r.pinned = true
		}
	}
}

// OpenRemote connects to a probe shard and fetches its O(1) metadata. The
// URL names the shard's base ("http://host:port"; a bare host:port gets
// http://); a fragment selects a named source on a multi-source shard
// ("http://host:port#web") and may pin a graph commitment with a root=HEX
// segment ("http://host:port#root=HEX", "#web&root=HEX"), the spec form
// of WithCommitment. The returned Source carries the EdgeCounter /
// DegreeBounder / RandomEdger capabilities — on its dynamic capability
// view — exactly when the shard's backing source does, and always the
// RowFetcher capability: opening fails when the shard's meta lacks the
// row_full flag.
func OpenRemote(rawURL string, opts ...RemoteOption) (Source, error) {
	base := strings.TrimSpace(rawURL)
	if base == "" {
		return nil, fmt.Errorf("source: remote: empty shard URL")
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("source: remote: shard URL %q: %w", rawURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("source: remote: shard URL %q: unsupported scheme %q (want http or https)", rawURL, u.Scheme)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("source: remote: shard URL %q: missing host", rawURL)
	}
	name, fragRoot, err := parseRemoteFragment(u.Fragment)
	if err != nil {
		return nil, fmt.Errorf("source: remote: shard URL %q: %w", rawURL, err)
	}
	u.Fragment = ""
	u.Path = strings.TrimSuffix(u.Path, "/")
	u.RawQuery = ""
	r := &Remote{
		base:      u.String(),
		name:      name,
		client:    &http.Client{Timeout: 5 * time.Second},
		ownClient: true,
		retries:   2,
		backoff:   50 * time.Millisecond,
	}
	for _, o := range opts {
		o(r)
	}
	if !fragRoot.IsZero() {
		WithCommitment(fragRoot)(r)
	}
	if r.ownClient && r.timeout > 0 {
		r.client.Timeout = r.timeout
	}
	meta, err := r.fetchMeta()
	if err != nil {
		return nil, err
	}
	r.n = meta.N
	if meta.M != nil {
		r.m, r.hasM = *meta.M, true
	}
	if meta.MaxDegree != nil {
		r.maxDeg, r.hasMaxDeg = *meta.MaxDegree, true
	}
	r.hasRE = meta.RandomEdge
	if !meta.RowFull {
		return nil, fmt.Errorf("source: remote: shard %s does not advertise row_full in /probe/meta; every shard must serve the %s op", r.base, OpRowFull)
	}
	if r.pinned {
		// Fail fast on misconfiguration: a shard that carries no
		// commitment could never answer attest=1, and one advertising a
		// different root serves a different graph than the caller pinned.
		if meta.Commitment == "" {
			return nil, fmt.Errorf("source: remote: shard %s carries no commitment; cannot pin root %s", r.base, r.root)
		}
		if meta.Commitment != r.root.String() {
			return nil, fmt.Errorf("source: remote: shard %s advertises commitment %s, not the pinned %s", r.base, meta.Commitment, r.root)
		}
	}
	return r, nil
}

// parseRemoteFragment splits a shard URL's fragment into the named-source
// selector and an optional pinned commitment: "&"-separated segments,
// root=HEX pinning, anything else the source name.
func parseRemoteFragment(frag string) (name string, root attest.Root, err error) {
	if frag == "" {
		return "", attest.Root{}, nil
	}
	for _, seg := range strings.Split(frag, "&") {
		if raw, ok := strings.CutPrefix(seg, "root="); ok {
			root, err = attest.ParseRoot(raw)
			if err != nil {
				return "", attest.Root{}, err
			}
			continue
		}
		// A key=value segment that isn't root= is almost certainly a
		// typo'd pin; treating it as a source name would silently drop
		// the commitment, so reject it.
		if key, _, ok := strings.Cut(seg, "="); ok {
			return "", attest.Root{}, fmt.Errorf("unknown fragment key %q (want root=HEX or a source name)", key)
		}
		if name != "" && seg != "" {
			return "", attest.Root{}, fmt.Errorf("fragment names two sources (%q and %q)", name, seg)
		}
		name = seg
	}
	return name, root, nil
}

// Caps implements CapSource from the construction-time /probe/meta
// snapshot: the remote advertises M / MaxDegree / RandomEdge exactly when
// the shard's backing source does, and FetchRows always.
func (r *Remote) Caps() Caps {
	c := Caps{FetchRows: func(vs []int) ([][]int, error) { return r.fetchRowsScoped(probeScope{}, vs) }}
	if r.hasM {
		m := r.m
		c.M = func() int { return m }
	}
	if r.hasMaxDeg {
		d := r.maxDeg
		c.MaxDegree = func() int { return d }
	}
	if r.hasRE {
		c.RandomEdge = func(prg *rnd.PRG) (int, int) { return r.randomEdge(probeScope{}, prg) }
	}
	return c
}

// Base returns the shard's base URL (for error reporting and bench
// labels).
func (r *Remote) Base() string { return r.base }

// N implements Source from the metadata snapshot; free, as in the model.
func (r *Remote) N() int { return r.n }

// Degree implements Source.
func (r *Remote) Degree(v int) int { return r.probe(probeScope{}, OpDegree, v, 0) }

// Neighbor implements Source.
func (r *Remote) Neighbor(v, i int) int { return r.probe(probeScope{}, OpNeighbor, v, i) }

// Adjacency implements Source.
func (r *Remote) Adjacency(u, v int) int {
	// Out-of-range endpoints answer -1 locally (the wire contract answers
	// the same), saving the round trip algorithms never need.
	if u < 0 || u >= r.n || v < 0 || v >= r.n {
		return -1
	}
	return r.probe(probeScope{}, OpAdjacency, u, v)
}

// RoundTrips implements RoundTripCounter: logical shard requests issued so
// far (probes, row fetches and the construction-time meta fetch; retries
// of a failing request are not re-counted, health-plane pings never
// count).
func (r *Remote) RoundTrips() uint64 { return r.requests.load() }

// ScopeTrips implements TripScoper: the view shares this remote's
// connections but counts round trips (and attestation accounting) into
// its own counters only.
func (r *Remote) ScopeTrips() Source {
	return &remoteScope{r: r, tc: &tripCount{}, af: &tripCount{}, pb: &tripCount{}}
}

// Ping implements Pinger: one uncounted, unretried health-plane request
// against /probe/meta. A 200 with a well-formed body means alive;
// anything else reports the failure.
func (r *Remote) Ping() error {
	resp, err := r.client.Get(r.metaURL())
	if err != nil {
		return fmt.Errorf("source: ping %s: %w", r.base, err)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxProbeBody))
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("source: ping %s: %w", r.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("source: ping %s: status %d: %s", r.base, resp.StatusCode, shardErrText(body))
	}
	var meta probeMeta
	if err := json.Unmarshal(body, &meta); err != nil {
		return fmt.Errorf("source: ping %s: malformed meta: %w", r.base, err)
	}
	return nil
}

// Close releases the client's idle connections. Idempotent; a closed
// Remote remains usable (new probes open fresh connections).
func (r *Remote) Close() error {
	r.closeOnce.Do(r.client.CloseIdleConnections)
	return nil
}

// randomEdge implements the RandomEdger capability over the wire: one
// uint64 drawn from the caller's PRG becomes the shard-side sampling seed,
// so the answer is a deterministic function of the caller's PRG state and
// identical on every replica of the graph.
func (r *Remote) randomEdge(ps probeScope, prg *rnd.PRG) (int, int) {
	u, v, err := r.randomEdgeScoped(ps, prg.Uint64())
	if err != nil {
		panic(err)
	}
	return u, v
}

// randomEdgeScoped is the error-returning seeded sampler shared by the
// public capability and Sharded's failover path.
func (r *Remote) randomEdgeScoped(ps probeScope, seed uint64) (int, int, *ProbeError) {
	reqURL := fmt.Sprintf("%s/probe?op=%s&seed=%d%s", r.base, OpRandomEdge, seed, r.sourceParam())
	var ans randomEdgeAnswer
	if err := r.doJSON(context.Background(), ps, "rpc:randomedge", -1, nil, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, reqURL, nil)
	}, &ans); err != nil {
		return 0, 0, &ProbeError{Shard: r.base, Op: OpRandomEdge, Status: statusOf(err), Err: err}
	}
	return ans.U, ans.V, nil
}

func (r *Remote) probe(ps probeScope, op string, a, b int) int {
	ans, err := r.probeScoped(context.Background(), ps, op, a, b)
	if err != nil {
		panic(err)
	}
	return ans
}

// probeScoped issues one scalar probe, attributing the round trip to
// ps.tc (nil: unscoped), recording an rpc span when ps is traced, and
// honouring ctx cancellation — the hedging hook: the loser of a hedged
// race is cancelled rather than completed. Against a pinned shard the
// probe carries attest=1 and the answer is verified before use:
// verification sits outside the retry loop, so a liar is never retried,
// only reported.
func (r *Remote) probeScoped(ctx context.Context, ps probeScope, op string, a, b int) (int, *ProbeError) {
	probeURL := fmt.Sprintf("%s/probe?op=%s&a=%d&b=%d%s", r.base, op, a, b, r.wireParams())
	var ans probeAnswer
	if err := r.doJSON(ctx, ps, rpcSpanOp(op), a, nil, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, probeURL, nil)
	}, &ans); err != nil {
		return 0, &ProbeError{Shard: r.base, Op: op, A: a, B: b, Status: statusOf(err), Err: err}
	}
	if r.pinned {
		if perr := r.verifyScalar(ps, op, a, b, &ans); perr != nil {
			return 0, perr
		}
	} else if perr := r.checkRange(op, a, b, ans.Answer); perr != nil {
		return 0, perr
	}
	return ans.Answer, nil
}

// checkRange rejects an answer no conformant shard gives: a degree, or
// a rowfull degree or cell, outside [0, n), or a neighbor or adjacency
// answer outside [-1, n). A pinned
// shard's answers are verified against its commitment instead; an
// unpinned shard's would otherwise reach the algorithm, and the row
// tier's fetch planning, unchecked. The error is a transport-class
// ProbeError, so a fleet fails the probe over as it would a dead shard.
func (r *Remote) checkRange(op string, a, b, ans int) *ProbeError {
	lo := -1
	if op == OpDegree || op == OpRowFull {
		lo = 0
	}
	if ans < lo || ans >= r.n {
		return &ProbeError{Shard: r.base, Op: op, A: a, B: b,
			Err: fmt.Errorf("shard answered %d, outside [%d,%d)", ans, lo, r.n)}
	}
	return nil
}

// verifyScalar checks one attested scalar answer: the returned row must
// fold to the pinned root, and the answer must be exactly what the
// verified row implies — a shard whose proofs are honest but whose
// answers lie is caught by the cross-check, not trusted.
func (r *Remote) verifyScalar(ps probeScope, op string, a, b int, ans *probeAnswer) *ProbeError {
	if a < 0 || a >= r.n {
		// Outside the committed range nothing is provable; the protocol
		// answer is -1 (adjacency) and the wire layer rejects other ops.
		if op == OpAdjacency && ans.Answer != -1 {
			return r.attestErr(ps, op, a, b, fmt.Errorf("%w: answer %d for out-of-range vertex %d, want -1", ErrAttestation, ans.Answer, a))
		}
		return nil
	}
	r.countProof(ps, ans.Proof)
	if err := attest.VerifyRow(r.root, r.n, a, ans.Row, ans.Proof); err != nil {
		return r.attestErr(ps, op, a, b, fmt.Errorf("%w: %v", ErrAttestation, err))
	}
	want := scalarFromRow(op, ans.Row, b)
	if ans.Answer != want {
		return r.attestErr(ps, op, a, b, fmt.Errorf("%w: answer %d contradicts the verified row (want %d)", ErrAttestation, ans.Answer, want))
	}
	return nil
}

// scalarFromRow derives the only honest scalar answer from a verified
// adjacency row.
func scalarFromRow(op string, row []int, b int) int {
	switch op {
	case OpNeighbor:
		if b < 0 || b >= len(row) {
			return -1
		}
		return row[b]
	case OpAdjacency:
		for i, w := range row {
			if w == b {
				return i
			}
		}
		return -1
	default: // OpDegree
		return len(row)
	}
}

// countProof attributes transported proof bytes to the remote and the
// per-request view.
func (r *Remote) countProof(ps probeScope, proof []string) {
	n := uint64(attest.ProofBytes(proof))
	r.proofBytes.add(n)
	ps.pb.add(n)
}

// attestErr records one verification failure and wraps it for the
// failover machinery.
func (r *Remote) attestErr(ps probeScope, op string, a, b int, err error) *ProbeError {
	r.attestFails.add(1)
	ps.af.add(1)
	return &ProbeError{Shard: r.base, Op: op, A: a, B: b, Err: err}
}

// verifyRows checks every attested row of a rowfull answer for vs
// against the pinned root.
func (r *Remote) verifyRows(ps probeScope, vs []int, out *probeBatchAnswer) *ProbeError {
	if len(out.Proofs) != len(vs) {
		return r.attestErr(ps, OpRowFull, len(vs), 0,
			fmt.Errorf("%w: shard answered %d proofs for %d rows", ErrAttestation, len(out.Proofs), len(vs)))
	}
	for i, v := range vs {
		r.countProof(ps, out.Proofs[i])
		if err := attest.VerifyRow(r.root, r.n, v, out.Rows[i], out.Proofs[i]); err != nil {
			return r.attestErr(ps, OpRowFull, v, 0, fmt.Errorf("%w: row %d: %v", ErrAttestation, i, err))
		}
	}
	return nil
}

// AttestFailures implements AttestCounter: probe answers that failed
// verification against the pinned commitment so far.
func (r *Remote) AttestFailures() uint64 { return r.attestFails.load() }

// ProofBytes implements AttestCounter: attestation proof bytes
// transported so far.
func (r *Remote) ProofBytes() uint64 { return r.proofBytes.load() }

// fetchRowsScoped implements the RowFetcher capability over the wire:
// one POST of rowfull probes per MaxProbeBatch chunk, each answering the
// degree plus the full neighbor row.
func (r *Remote) fetchRowsScoped(ps probeScope, vs []int) ([][]int, error) {
	if len(vs) == 0 {
		return nil, nil
	}
	rows := make([][]int, 0, len(vs))
	for start := 0; start < len(vs); start += MaxProbeBatch {
		got, err := r.postRows(ps, vs[start:min(start+MaxProbeBatch, len(vs))])
		if err != nil {
			return nil, err
		}
		rows = append(rows, got...)
	}
	return rows, nil
}

// postRows fetches the rows of vs in one POST round trip, counted on ps
// and traced as rpc:rowfull. The shard's answer is validated (row count,
// per-row length against the answered degrees, and each cell's range on
// an unpinned shard, its proofs on a pinned one) before use.
func (r *Remote) postRows(ps probeScope, vs []int) ([][]int, error) {
	probes := make([]ProbeReq, len(vs))
	for i, v := range vs {
		probes[i] = ProbeReq{Op: OpRowFull, A: v}
	}
	body, err := json.Marshal(probeBatchReq{Probes: probes})
	if err != nil {
		return nil, err
	}
	batchURL := r.base + "/probe" + strings.Replace(r.wireParams(), "&", "?", 1)
	var tags []string
	if ps.tr != nil {
		tags = []string{fmt.Sprintf("batch=%d", len(vs))}
	}
	var out probeBatchAnswer
	if err := r.doJSON(context.Background(), ps, "rpc:rowfull", -1, tags, func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, batchURL, strings.NewReader(string(body)))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	}, &out); err != nil {
		return nil, &ProbeError{Shard: r.base, Op: OpRowFull, A: len(vs), Status: statusOf(err), Err: err}
	}
	if len(out.Answers) != len(vs) || len(out.Rows) != len(vs) {
		return nil, &ProbeError{Shard: r.base, Op: OpRowFull, A: len(vs),
			Err: fmt.Errorf("shard answered %d answers and %d rows for %d probes", len(out.Answers), len(out.Rows), len(vs))}
	}
	for i, row := range out.Rows {
		if len(row) != out.Answers[i] {
			return nil, &ProbeError{Shard: r.base, Op: OpRowFull, A: vs[i],
				Err: fmt.Errorf("shard answered a %d-neighbor row for degree %d", len(row), out.Answers[i])}
		}
	}
	if r.pinned {
		if perr := r.verifyRows(ps, vs, &out); perr != nil {
			return nil, perr
		}
		return out.Rows, nil
	}
	for i, row := range out.Rows {
		for j, w := range row {
			if perr := r.checkRange(OpRowFull, vs[i], j, w); perr != nil {
				return nil, perr
			}
		}
	}
	return out.Rows, nil
}

func (r *Remote) metaURL() string {
	return r.base + "/probe/meta" + strings.Replace(r.sourceParam(), "&", "?", 1)
}

func (r *Remote) fetchMeta() (probeMeta, error) {
	var meta probeMeta
	if err := r.getJSON(r.metaURL(), &meta); err != nil {
		return meta, fmt.Errorf("source: remote: %s is not answering as a probe shard: %w", r.base, err)
	}
	if meta.N < 0 || meta.N > MaxVertices {
		return meta, fmt.Errorf("source: remote: shard %s reports n=%d, outside [0,%d]", r.base, meta.N, MaxVertices)
	}
	return meta, nil
}

func (r *Remote) sourceParam() string {
	if r.name == "" {
		return ""
	}
	return "&source=" + url.QueryEscape(r.name)
}

// wireParams renders the query-string suffix shared by probe requests
// ("&"-prefixed; callers flip the first "&" to "?" on bare paths): the
// named-source selector plus attest=1 against a pinned shard.
func (r *Remote) wireParams() string {
	s := r.sourceParam()
	if r.pinned {
		s += "&attest=1"
	}
	return s
}

// getJSON fetches one unscoped, untraced document (the meta plane).
func (r *Remote) getJSON(u string, out any) error {
	return r.doJSON(context.Background(), probeScope{}, "rpc:meta", -1, nil, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	}, out)
}

// traceCarrier is implemented by wire answer bodies that can carry a
// shard's server-side spans back to the client (wire.go).
type traceCarrier interface {
	traceSpans() []trace.Span
}

// doJSON issues one logical request with retry-with-backoff and decodes
// a 200 body into out. Transport errors, 5xx and 429 retry; other
// statuses are terminal (the request itself is wrong, sending it again
// cannot help). One logical request counts one round trip — on the
// shared counter and, when scoped, on ps.tc — regardless of retries.
// When ps is traced, the logical request records one rpc span under
// ps.parent (retries fold into an attempts tag), every attempt carries
// the X-LCA-Trace header, and shard-side spans returned in the answer
// are grafted under the rpc span. ctx cancellation aborts both
// in-flight attempts and backoff sleeps.
func (r *Remote) doJSON(ctx context.Context, ps probeScope, spanOp string, target int, tags []string, build func(context.Context) (*http.Request, error), out any) error {
	r.requests.add(1)
	ps.tc.add(1)
	if ps.tr == nil {
		_, err := r.attempt(ctx, "", build, out)
		return err
	}
	h := ps.tr.StartUnder(ps.parent, spanOp, target)
	attempts, err := r.attempt(ctx, trace.FormatHeader(ps.tr.ID(), h.ID()), build, out)
	if err == nil {
		if c, ok := out.(traceCarrier); ok {
			ps.tr.Merge(h.ID(), c.traceSpans())
		}
	}
	if attempts > 1 {
		tags = append(tags, fmt.Sprintf("attempts=%d", attempts))
	}
	if err != nil {
		tags = append(tags, "error")
	}
	ps.tr.End(h, tags...)
	return err
}

// attempt runs doJSON's retry loop, reporting how many attempts the
// logical request took.
func (r *Remote) attempt(ctx context.Context, traceHdr string, build func(context.Context) (*http.Request, error), out any) (attempts int, _ error) {
	var last error
	for a := 0; a <= r.retries; a++ {
		attempts = a + 1
		if a > 0 {
			select {
			case <-ctx.Done():
				return attempts, fmt.Errorf("%w (cancelled after %d attempts)", last, a)
			case <-time.After(r.backoff << (a - 1)):
			}
		}
		req, err := build(ctx)
		if err != nil {
			return attempts, err
		}
		if traceHdr != "" {
			req.Header.Set(trace.Header, traceHdr)
		}
		resp, err := r.client.Do(req)
		if err != nil {
			last = err
			if ctx.Err() != nil {
				return attempts, last
			}
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxProbeBody))
		resp.Body.Close()
		if err != nil {
			last = err
			continue
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, out); err != nil {
				last = fmt.Errorf("malformed shard response: %w", err)
				continue
			}
			return attempts, nil
		}
		last = &statusError{status: resp.StatusCode, msg: shardErrText(body)}
		if resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return attempts, last
		}
	}
	return attempts, fmt.Errorf("%w (after %d attempts)", last, r.retries+1)
}

// shardErrText extracts the error envelope's message, falling back to the
// trimmed raw body.
func shardErrText(body []byte) string {
	var we wireError
	if json.Unmarshal(body, &we) == nil && we.Error != "" {
		return we.Error
	}
	s := strings.TrimSpace(string(body))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// remoteScope is the TripScoper view of a Remote: same shard, same
// connections, round trips counted into the view's own counter, spans
// recorded into the view's tracer when one is set.
type remoteScope struct {
	r      *Remote
	tc     *tripCount
	af, pb *tripCount
	tr     *trace.Tracer
}

var (
	_ Source           = (*remoteScope)(nil)
	_ CapSource        = (*remoteScope)(nil)
	_ RoundTripCounter = (*remoteScope)(nil)
	_ TracerSetter     = (*remoteScope)(nil)
)

// SetTracer implements TracerSetter: subsequent probes through this
// view record rpc spans (and stitch the shard's spans) into tr. Set it
// before probing; the view is per-request, not concurrent with setup.
func (s *remoteScope) SetTracer(tr *trace.Tracer) { s.tr = tr }

// scope captures the per-call probe scope. The parent is read at call
// time: this view is probed serially (by the query's oracle stack), so
// the tracer's implicit parent is the enclosing oracle span.
func (s *remoteScope) scope() probeScope {
	return probeScope{tc: s.tc, af: s.af, pb: s.pb, tr: s.tr, parent: s.tr.Parent()}
}

func (s *remoteScope) N() int { return s.r.n }

func (s *remoteScope) Degree(v int) int { return s.r.probe(s.scope(), OpDegree, v, 0) }

func (s *remoteScope) Neighbor(v, i int) int { return s.r.probe(s.scope(), OpNeighbor, v, i) }

func (s *remoteScope) Adjacency(u, v int) int {
	if u < 0 || u >= s.r.n || v < 0 || v >= s.r.n {
		return -1
	}
	return s.r.probe(s.scope(), OpAdjacency, u, v)
}

// Caps forwards the remote's capability view, with RandomEdge and
// FetchRows attributed to this scope.
func (s *remoteScope) Caps() Caps {
	c := s.r.Caps()
	if c.RandomEdge != nil {
		c.RandomEdge = func(prg *rnd.PRG) (int, int) { return s.r.randomEdge(s.scope(), prg) }
	}
	c.FetchRows = func(vs []int) ([][]int, error) { return s.r.fetchRowsScoped(s.scope(), vs) }
	return c
}

// RoundTrips reports only the trips issued through this view.
func (s *remoteScope) RoundTrips() uint64 { return s.tc.load() }

// AttestFailures implements AttestCounter for this view only.
func (s *remoteScope) AttestFailures() uint64 { return s.af.load() }

// ProofBytes implements AttestCounter for this view only.
func (s *remoteScope) ProofBytes() uint64 { return s.pb.load() }
