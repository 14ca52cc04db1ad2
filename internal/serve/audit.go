package serve

// The query-audit log: the replayable half of the trust plane. When a
// server is built WithAuditLog, every successfully executed query flight
// appends one JSON line capturing everything the answer depended on —
// kind, algorithm, source spec, seed, parameters, query coordinates, the
// full cell-probe transcript with answers, and the answer itself with
// its hash. Records are HMAC-chained (internal/attest.Chain): each
// line's signature covers the previous line's, so tampering, truncation
// and reordering are all detectable with the log secret alone.
//
// ReplayAuditLog is the offline verifier behind `lcaverify -replay`: it
// walks the chain, rebuilds each query's LCA instance from the registry
// over an oracle that answers probes from the recorded transcript, and
// re-executes the query bit-for-bit — no network, no source, no server.
// A replay mismatch means the log's transcript does not support its
// answer: either the log was forged past the chain (secret leaked) or
// the serving binary computed something else than the registry does.
// When the served source carried a graph commitment, records embed the
// root plus Merkle-proven rows for the probed vertices, and replay
// additionally verifies every transcript answer against the proven rows
// — tying the offline log back to the same commitment clients pin.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"lca/internal/attest"
	"lca/internal/core"
	"lca/internal/oracle"
	"lca/internal/registry"
	"lca/internal/rnd"
	"lca/internal/source"
)

// auditRowCap bounds how many distinct probed vertices get their
// committed row (with Merkle proof) embedded per record: enough to cover
// a typical LCA recursion tree, bounded so one adversarial wide query
// cannot balloon the log.
const auditRowCap = 64

// WithAuditLog makes the server append one signed JSON line per executed
// query flight to w (audit.go). The secret keys the HMAC chain: a
// verifier holding it can detect tampering, truncation and reordering;
// an empty secret still chains for integrity, without authenticity.
// Writes are serialized; w need not be concurrency-safe.
func WithAuditLog(w io.Writer, secret string) Option {
	return func(s *Server) {
		if w != nil {
			s.audit = &auditLog{w: w, chain: attest.NewChain(secret)}
		}
	}
}

// auditLog serializes record signing and writing: the HMAC chain is
// stateful, so the lock also fixes the log's total order.
type auditLog struct {
	mu    sync.Mutex
	w     io.Writer
	chain *attest.Chain
}

// AuditProbe is one recorded cell probe with its answer.
type AuditProbe struct {
	Op     string `json:"op"`
	A      int    `json:"a"`
	B      int    `json:"b,omitempty"`
	Answer int    `json:"answer"`
}

// AuditRow is one committed adjacency row embedded in a record, with its
// Merkle inclusion proof against the record's commitment.
type AuditRow struct {
	V     int      `json:"v"`
	Row   []int    `json:"row"`
	Proof []string `json:"proof"`
}

// AuditRecord is one audit-log line. Field order is load-bearing: the
// signature covers the record's canonical JSON with Sig empty, and
// encoding/json emits struct fields in declaration order, so writer and
// verifier marshal identical payload bytes.
type AuditRecord struct {
	Kind       string            `json:"kind"`
	Algo       string            `json:"algo"`
	Source     string            `json:"source,omitempty"`
	Spec       string            `json:"spec,omitempty"`
	N          int               `json:"n"`
	Seed       uint64            `json:"seed"`
	Params     map[string]string `json:"params,omitempty"`
	Coords     map[string]int    `json:"coords"`
	Probes     []AuditProbe      `json:"probes"`
	Answer     json.RawMessage   `json:"answer"`
	AnswerHash string            `json:"answer_hash"`
	Commitment string            `json:"commitment,omitempty"`
	Rows       []AuditRow        `json:"rows,omitempty"`
	Sig        string            `json:"sig,omitempty"`
}

// recordAudit assembles, signs and appends one record. A nil recorder
// (auditing off, or an estimate flight) is a no-op. Called inside the
// coalescing flight, so a hot key is logged once, like it executed once.
func (s *Server) recordAudit(kind string, d *registry.Descriptor, ns *namedSource, p registry.Params, coords map[string]int, rec *auditOracle, answer map[string]any) {
	if s.audit == nil || rec == nil {
		return
	}
	ansJSON, err := json.Marshal(answer)
	if err != nil {
		return
	}
	sum := sha256.Sum256(ansJSON)
	r := &AuditRecord{
		Kind:       kind,
		Algo:       d.Name,
		Source:     ns.name,
		Spec:       ns.spec,
		N:          ns.src.N(),
		Seed:       uint64(s.seed),
		Coords:     coords,
		Probes:     rec.probes,
		Answer:     ansJSON,
		AnswerHash: hex.EncodeToString(sum[:]),
	}
	if len(p) > 0 {
		r.Params = make(map[string]string, len(p))
		for k, v := range p {
			r.Params[k] = fmt.Sprintf("%v", v)
		}
	}
	if at, ok := source.AttestorOf(ns.src); ok {
		r.Commitment = at.Commitment().String()
		r.Rows = provenRows(at, rec.probes)
	}
	if s.audit.append(r) == nil {
		s.met.auditRecords.Inc()
	}
}

// provenRows collects the committed rows (with proofs) of the first
// auditRowCap distinct vertices the transcript probed.
func provenRows(at source.Attestor, probes []AuditProbe) []AuditRow {
	seen := make(map[int]bool)
	var out []AuditRow
	for _, p := range probes {
		if seen[p.A] {
			continue
		}
		seen[p.A] = true
		row, proof := at.ProveRow(p.A)
		if proof == nil {
			continue
		}
		out = append(out, AuditRow{V: p.A, Row: row, Proof: proof})
		if len(out) >= auditRowCap {
			break
		}
	}
	return out
}

// append signs r (chaining off the previous record) and writes it as one
// JSON line.
func (l *auditLog) append(r *AuditRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.Sig = ""
	payload, err := json.Marshal(r)
	if err != nil {
		return err
	}
	r.Sig = l.chain.Sign(payload)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	_, err = l.w.Write(line)
	return err
}

// auditOracle records the cell-probe transcript of one query: every
// Degree/Neighbor/Adjacency the algorithm issues, with its answer, in
// order. It sits outermost in the oracle chain (directly under the LCA),
// so the transcript is transport-independent — prefetch and budget tiers
// underneath change how probes travel, never what gets recorded. Unwrap
// keeps the chain's telemetry visible to the Counter above it.
// Per-flight and single-query, so no locking.
type auditOracle struct {
	inner  oracle.Oracle
	probes []AuditProbe
}

var (
	_ oracle.Oracle   = (*auditOracle)(nil)
	_ oracle.Explorer = (*auditOracle)(nil)
)

func newAuditOracle(inner oracle.Oracle) *auditOracle { return &auditOracle{inner: inner} }

// Unwrap returns the recorded oracle.
func (a *auditOracle) Unwrap() oracle.Oracle { return a.inner }

// N implements Oracle (free, not recorded — n is public knowledge).
func (a *auditOracle) N() int { return a.inner.N() }

// Degree implements Oracle.
func (a *auditOracle) Degree(v int) int {
	ans := a.inner.Degree(v)
	a.probes = append(a.probes, AuditProbe{Op: source.OpDegree, A: v, Answer: ans})
	return ans
}

// Neighbor implements Oracle.
func (a *auditOracle) Neighbor(v, i int) int {
	ans := a.inner.Neighbor(v, i)
	a.probes = append(a.probes, AuditProbe{Op: source.OpNeighbor, A: v, B: i, Answer: ans})
	return ans
}

// Adjacency implements Oracle.
func (a *auditOracle) Adjacency(u, v int) int {
	ans := a.inner.Adjacency(u, v)
	a.probes = append(a.probes, AuditProbe{Op: source.OpAdjacency, A: u, B: v, Answer: ans})
	return ans
}

// Neighbors implements Explorer, recording what the scalar loop would
// (one Degree plus one Neighbor per cell) — the same account Counter
// charges, so the transcript replays on an oracle without Explorer.
func (a *auditOracle) Neighbors(v int) []int {
	row := oracle.Neighbors(a.inner, v)
	a.probes = append(a.probes, AuditProbe{Op: source.OpDegree, A: v, Answer: len(row)})
	for i, w := range row {
		a.probes = append(a.probes, AuditProbe{Op: source.OpNeighbor, A: v, B: i, Answer: w})
	}
	return row
}

// Prefetch implements Explorer; hints read nothing, so they leave no
// transcript.
func (a *auditOracle) Prefetch(vs ...int) { oracle.Prefetch(a.inner, vs...) }

// replay ----------------------------------------------------------------

// ReplayReport summarizes a successful audit-log replay.
type ReplayReport struct {
	// Records is the number of chained records verified and re-executed.
	Records int
	// ProofsVerified counts the embedded row proofs checked against their
	// records' commitments.
	ProofsVerified int
}

// ReplayAuditLog verifies an audit log offline: the HMAC chain under
// secret, then each record re-executed — the algorithm rebuilt from the
// registry with the recorded seed and parameters, probing an oracle that
// answers only from the recorded transcript — and the recomputed answer
// compared hash-for-hash with the logged one. Records carrying a
// commitment additionally have every embedded row proof verified and
// every transcript answer cross-checked against the proven rows. The
// first failure stops the replay with an error naming the line.
func ReplayAuditLog(r io.Reader, secret string) (*ReplayReport, error) {
	chain := attest.NewChain(secret)
	rep := &ReplayReport{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	line := 0
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		line++
		var rec AuditRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("audit line %d: not a record: %v", line, err)
		}
		sig := rec.Sig
		rec.Sig = ""
		payload, err := json.Marshal(&rec)
		if err != nil {
			return nil, fmt.Errorf("audit line %d: %v", line, err)
		}
		if err := chain.Verify(payload, sig); err != nil {
			return nil, fmt.Errorf("audit line %d: %v", line, err)
		}
		proofs, err := replayRecord(&rec)
		if err != nil {
			return nil, fmt.Errorf("audit line %d: %v", line, err)
		}
		rep.Records++
		rep.ProofsVerified += proofs
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// replayRecord re-executes one verified record and returns how many row
// proofs it checked.
func replayRecord(rec *AuditRecord) (proofs int, err error) {
	d, err := registry.Get(rec.Algo)
	if err != nil {
		return 0, fmt.Errorf("algorithm %q not in this binary's registry: %v", rec.Algo, err)
	}
	p := registry.Params{}
	for k, raw := range rec.Params {
		v, perr := d.ParseValue(k, raw)
		if perr != nil {
			return 0, fmt.Errorf("parameter %q: %v", k, perr)
		}
		p[k] = v
	}
	if rec.Commitment != "" {
		proofs, err = verifyRecordRows(rec)
		if err != nil {
			return 0, err
		}
	}
	o := newTranscriptOracle(rec)
	inst, err := d.Build(o, rnd.Seed(rec.Seed), p)
	if err != nil {
		return 0, fmt.Errorf("rebuilding %s: %v", rec.Algo, err)
	}
	ans, err := replayQuery(rec, inst)
	if err != nil {
		return 0, err
	}
	got, err := json.Marshal(ans)
	if err != nil {
		return 0, err
	}
	sum := sha256.Sum256(got)
	if hex.EncodeToString(sum[:]) != rec.AnswerHash {
		return 0, fmt.Errorf("replayed answer %s does not match the logged hash (logged answer %s)", got, rec.Answer)
	}
	return proofs, nil
}

// replayQuery re-runs the recorded query on the rebuilt instance,
// converting transcript misses (a *source.ProbeError panic) into errors.
func replayQuery(rec *AuditRecord, inst any) (ans map[string]any, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*source.ProbeError)
			if !ok {
				panic(r)
			}
			ans, err = nil, fmt.Errorf("replay diverged from the transcript: %v", pe)
		}
	}()
	switch rec.Kind {
	case "edge":
		lca, ok := inst.(core.EdgeLCA)
		if !ok {
			return nil, fmt.Errorf("algorithm %q does not answer edge queries", rec.Algo)
		}
		return map[string]any{"in": lca.QueryEdge(rec.Coords["u"], rec.Coords["v"])}, nil
	case "vertex":
		lca, ok := inst.(core.VertexLCA)
		if !ok {
			return nil, fmt.Errorf("algorithm %q does not answer vertex queries", rec.Algo)
		}
		return map[string]any{"in": lca.QueryVertex(rec.Coords["v"])}, nil
	case "label":
		lca, ok := inst.(core.LabelLCA)
		if !ok {
			return nil, fmt.Errorf("algorithm %q does not answer label queries", rec.Algo)
		}
		return map[string]any{"label": lca.QueryLabel(rec.Coords["v"])}, nil
	}
	return nil, fmt.Errorf("unknown query kind %q", rec.Kind)
}

// verifyRecordRows checks every embedded row proof against the record's
// commitment and every transcript answer against the proven rows — a
// transcript that contradicts a proven row is a forged log, whatever the
// chain says.
func verifyRecordRows(rec *AuditRecord) (int, error) {
	root, err := attest.ParseRoot(rec.Commitment)
	if err != nil {
		return 0, fmt.Errorf("commitment: %v", err)
	}
	rows := make(map[int][]int, len(rec.Rows))
	for _, ar := range rec.Rows {
		if err := attest.VerifyRow(root, rec.N, ar.V, ar.Row, ar.Proof); err != nil {
			return 0, fmt.Errorf("row %d: %v", ar.V, err)
		}
		rows[ar.V] = ar.Row
	}
	for i, p := range rec.Probes {
		row, ok := rows[p.A]
		if !ok {
			continue
		}
		want, decidable := probeFromRow(p.Op, row, p.B)
		if decidable && p.Answer != want {
			return 0, fmt.Errorf("transcript probe %d (%s a=%d b=%d) answers %d, but the proven row says %d",
				i, p.Op, p.A, p.B, p.Answer, want)
		}
	}
	return len(rec.Rows), nil
}

// probeFromRow derives the honest answer of one probe about the row's
// owner from the proven row.
func probeFromRow(op string, row []int, b int) (want int, decidable bool) {
	switch op {
	case source.OpDegree:
		return len(row), true
	case source.OpNeighbor:
		if b < 0 || b >= len(row) {
			return -1, true
		}
		return row[b], true
	case source.OpAdjacency:
		for i, w := range row {
			if w == b {
				return i, true
			}
		}
		return -1, true
	}
	return 0, false
}

// transcriptOracle answers probes from a record's transcript alone — the
// replay needs no source, no network and no server binary state. A probe
// outside the transcript panics a *source.ProbeError: the replayed
// algorithm diverged from the recorded run.
type transcriptOracle struct {
	n    string // record label for errors
	size int
	m    map[transcriptKey]int
}

type transcriptKey struct {
	op   uint8
	a, b int
}

const (
	tkDeg uint8 = iota
	tkNbr
	tkAdj
)

func newTranscriptOracle(rec *AuditRecord) *transcriptOracle {
	t := &transcriptOracle{n: rec.Algo, size: rec.N, m: make(map[transcriptKey]int, len(rec.Probes))}
	for _, p := range rec.Probes {
		switch p.Op {
		case source.OpDegree:
			t.m[transcriptKey{op: tkDeg, a: p.A}] = p.Answer
		case source.OpNeighbor:
			t.m[transcriptKey{op: tkNbr, a: p.A, b: p.B}] = p.Answer
		case source.OpAdjacency:
			t.m[transcriptKey{op: tkAdj, a: p.A, b: p.B}] = p.Answer
		}
	}
	return t
}

var _ oracle.Oracle = (*transcriptOracle)(nil)

func (t *transcriptOracle) N() int { return t.size }

func (t *transcriptOracle) lookup(op uint8, name string, a, b int) int {
	if ans, ok := t.m[transcriptKey{op: op, a: a, b: b}]; ok {
		return ans
	}
	panic(&source.ProbeError{Shard: "audit-replay(" + t.n + ")", Op: name, A: a, B: b,
		Err: fmt.Errorf("probe not in the recorded transcript")})
}

func (t *transcriptOracle) Degree(v int) int { return t.lookup(tkDeg, source.OpDegree, v, 0) }

func (t *transcriptOracle) Neighbor(v, i int) int { return t.lookup(tkNbr, source.OpNeighbor, v, i) }

func (t *transcriptOracle) Adjacency(u, v int) int {
	return t.lookup(tkAdj, source.OpAdjacency, u, v)
}
