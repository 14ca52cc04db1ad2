package serve

// The tracing plane: per-request probe-level span trees.
//
//	GET /traces[?slow=1]
//	GET /traces/{id}
//
// A query request is traced when it forces a trace (?trace=1 on any
// query endpoint), when the head-based sampler admits it
// (WithTraceSample), or when slow-query capture is configured
// (WithSlowQuery) — the last traces every query, because a threshold
// violator can only be retained with its full span tree if the tree was
// recorded while the query ran. Traced executions thread one tracer
// through every layer: the query handler opens the root span
// (query:KIND, tagged with the algorithm), the oracle wrappers record
// exploration and budget spans, the source layer records per-round-trip
// rpc spans with failover/hedge outcome tags, and remote shards stitch
// their server-side spans into the same tree over the X-LCA-Trace
// header (see internal/trace and docs/WIRE.md).
//
// Finished traces land in two bounded rings (internal/trace.Ring):
// sampled and forced traces rotate through the recent ring, slow-query
// traces are force-retained in the slow ring. GET /traces lists the
// recent ring newest-first (?slow=1 lists the slow ring); GET
// /traces/{id} fetches one retained trace by its 16-hex id. Sampled and
// forced answers additionally carry trace_id and trace fields inline.
//
// The tracing decision is made before the coalescing key is formed and
// folded into it, so traced and untraced requests never share a flight
// — an untraced caller is never billed the tracing overhead of a
// stranger's ?trace=1.
//
// With no sampler, no slow-query capture and no ?trace=1, the plane is
// off: every layer's tracer pointer is nil and every instrumentation
// site reduces to one nil test — zero allocations on the probe hot path
// (verified by the conformance tests).

import (
	"net/http"
	"time"

	"lca/internal/oracle"
	"lca/internal/trace"
)

// TraceMaxSpans bounds one query's span tree; past it spans are dropped
// and counted (Record.Dropped / Record.Truncated), never reallocated.
const TraceMaxSpans = trace.DefaultMaxSpans

// TracesPath is the trace-plane listing endpoint.
const TracesPath = "/traces"

// WithTraceSample enables head-based sampling: one in every n query
// requests is traced and retained in the recent ring (n == 1 traces
// every request; n <= 0 disables sampling). ?trace=1 forces a trace on
// any server regardless of sampling.
func WithTraceSample(n int) Option {
	return func(s *Server) { s.sampler = trace.NewSampler(n) }
}

// WithSlowQuery enables slow-query capture: every query is traced, and
// one that runs at least threshold (when positive) or charges more than
// probes cell probes (when positive) is force-retained in the slow ring
// with its full span tree. Tracing every query costs span recording on
// the probe path; the per-span cost is a few words and one time read,
// but latency-critical deployments should prefer sampling.
func WithSlowQuery(threshold time.Duration, probes uint64) Option {
	return func(s *Server) {
		if threshold > 0 {
			s.slowDur = threshold
		}
		if probes > 0 {
			s.slowProbes = probes
		}
	}
}

// traceParam parses the optional trace=0|1|false|true selector that
// forces a trace for one request.
func traceParam(r *http.Request) (bool, error) {
	switch raw := r.URL.Query().Get("trace"); raw {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	default:
		return false, badRequest("parameter \"trace\": %q is not a boolean (want 0/1/false/true)", raw)
	}
}

// traceDecision is one request's tracing verdict, made before the
// coalescing key is formed (key folds it in) and consumed by the flight
// leader when the execution begins.
type traceDecision struct {
	traced bool // the execution records spans
	attach bool // the answer carries the tree (forced or head-sampled)
}

// traceDecision makes the per-request verdict: forced requests and
// sampler admissions attach the tree to the answer; slow-query capture
// traces everything else silently, retaining only threshold violators.
func (s *Server) traceDecision(forced bool) traceDecision {
	if forced || s.sampler.Sample() {
		return traceDecision{traced: true, attach: true}
	}
	if s.slowDur > 0 || s.slowProbes > 0 {
		return traceDecision{traced: true}
	}
	return traceDecision{}
}

// key returns the decision's coalescing-key component.
func (d traceDecision) key() string {
	switch {
	case d.attach:
		return "trace"
	case d.traced:
		return "slowcap"
	default:
		return "off"
	}
}

// queryTrace is one traced execution: the tracer and the wall-clock
// start. The nil *queryTrace — the untraced execution — is valid
// everywhere and costs a nil test per call.
type queryTrace struct {
	tr     *trace.Tracer
	attach bool
	start  time.Time
}

// begin starts a traced execution (nil for untraced). The flight opens
// its root span on the tracer (trace.Tracer.Root), so every span the
// layers below record on this goroutine nests under it.
func (d traceDecision) begin() *queryTrace {
	if !d.traced {
		return nil
	}
	return &queryTrace{tr: trace.New(trace.NewID(), TraceMaxSpans), attach: d.attach, start: time.Now()}
}

// tracer returns the execution's tracer, nil when untraced.
func (qt *queryTrace) tracer() *trace.Tracer {
	if qt == nil {
		return nil
	}
	return qt.tr
}

// finishTrace runs once the flight has ended its root span: it applies
// the slow-query verdict and retains the record in the rings, and returns
// the trace id and span tree to attach to the answer (empty for
// slow-capture-only executions). A failed execution passes zero stats;
// budget exhaustions and shard failures leave their partial tree, root
// tagged error, as evidence.
func (s *Server) finishTrace(qt *queryTrace, st oracle.Stats) (id string, spans []trace.Span) {
	if qt == nil {
		return "", nil
	}
	tr := qt.tr
	elapsed := time.Since(qt.start)
	slow := (s.slowDur > 0 && elapsed >= s.slowDur) ||
		(s.slowProbes > 0 && st.Total() > s.slowProbes)
	if !qt.attach && !slow {
		return "", nil
	}
	all := tr.Spans()
	rec := trace.Record{
		ID:         tr.IDString(),
		Start:      qt.start.UnixMicro(),
		DurationUS: elapsed.Microseconds(),
		Probes:     st.Total(),
		RoundTrips: st.RoundTrips,
		Slow:       slow,
		Truncated:  tr.Dropped() > 0,
		Dropped:    tr.Dropped(),
		Spans:      all,
	}
	if len(all) > 0 {
		rec.Root = all[0].Op
	}
	s.traces.Add(rec)
	s.met.traces.Inc()
	if slow {
		s.met.slowQueries.Inc()
	}
	if qt.attach {
		return rec.ID, all
	}
	return "", nil
}

// trace endpoints ------------------------------------------------------

type tracesBody struct {
	Traces []trace.Record `json:"traces"`
	// Captured counts traces ever retained; rotation makes len(Traces) a
	// window, not a total.
	Captured uint64 `json:"captured"`
}

// handleTraces lists the recent ring newest-first; ?slow=1 lists the
// slow ring instead. Like /metrics, the trace plane is operational
// introspection and stays open on tenant-gated servers.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	var recs []trace.Record
	switch raw := r.URL.Query().Get("slow"); raw {
	case "", "0", "false":
		recs = s.traces.Recent()
	case "1", "true":
		recs = s.traces.Slow()
	default:
		s.writeError(w, badRequest("parameter \"slow\": %q is not a boolean (want 0/1/false/true)", raw))
		return
	}
	if recs == nil {
		recs = []trace.Record{}
	}
	writeJSON(w, http.StatusOK, tracesBody{Traces: recs, Captured: s.traces.Added()})
}

// handleTraceGet returns one retained trace by its 16-hex id.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.traces.Get(id)
	if !ok {
		s.writeError(w, notFound("no retained trace %q (the rings rotate; see %s)", id, TracesPath))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}
