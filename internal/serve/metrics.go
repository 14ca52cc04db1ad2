package serve

// The metrics plane and per-request correlation. Every server owns a
// metrics.Registry; handlers record through pre-resolved handles so the
// per-request cost is a few atomic adds. GET /metrics exports the
// registry as JSON (the machine-readable default) or text (?format=text,
// the greppable runbook form).
//
// Metric names fold dimensions in Prometheus style; every dimension is
// drawn from a fixed set (query kinds, HTTP statuses, configured
// tenants), so the table stays bounded regardless of traffic:
//
//	serve_queries_total{kind=edge|vertex|label|estimate}
//	serve_query_latency_us{kind=...}        histogram, microseconds
//	serve_probes_total                      cell probes charged by queries
//	serve_<name>_total                      one per oracle.Telemetry counter; the
//	                                        table is in ARCHITECTURE.md, "Telemetry"
//	serve_audit_records_total               signed audit-log records written
//	serve_probes_per_query                  histogram
//	serve_round_trips_per_query             histogram (network sources)
//	serve_coalesced_total                   duplicate requests that shared an execution
//	serve_probe_requests_total              wire-plane (/probe*) requests
//	serve_traces_total                      traces retained in the /traces rings
//	serve_slow_queries_total                queries over the slow-query thresholds
//	serve_errors_total{status=NNN}          error envelopes written
//	tenant_queries_total{tenant=NAME}       admitted requests per tenant
//	tenant_admission_rejected_total{tenant=NAME}
//	tenant_budget_rejected_total{tenant=NAME}

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"time"

	"lca/internal/metrics"
	"lca/internal/oracle"
)

// MetricsPath is the metrics-plane endpoint.
const MetricsPath = "/metrics"

// RequestIDHeader carries the per-request correlation ID: accepted from
// the client when present (sanitized), generated otherwise, echoed on
// every response and embedded in every JSON error envelope.
const RequestIDHeader = "X-Request-ID"

// queryKinds are the metric dimension values of the query plane.
var queryKinds = []string{"edge", "vertex", "label", "estimate"}

// serverMetrics holds pre-resolved metric handles for the hot path.
type serverMetrics struct {
	reg *metrics.Registry

	queries map[string]*metrics.Counter
	latency map[string]*metrics.Histogram

	probes *metrics.Counter
	// telemetry holds serve_<name>_total per oracle.TelemetryFields row.
	telemetry    []*metrics.Counter
	auditRecords *metrics.Counter

	probesPerQuery *metrics.Histogram
	rtPerQuery     *metrics.Histogram

	coalesced     *metrics.Counter
	probeRequests *metrics.Counter
	traces        *metrics.Counter
	slowQueries   *metrics.Counter
}

func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	m := &serverMetrics{
		reg:            reg,
		queries:        map[string]*metrics.Counter{},
		latency:        map[string]*metrics.Histogram{},
		probes:         reg.Counter("serve_probes_total"),
		telemetry:      make([]*metrics.Counter, len(oracle.TelemetryFields)),
		auditRecords:   reg.Counter("serve_audit_records_total"),
		probesPerQuery: reg.Histogram("serve_probes_per_query", metrics.CountBuckets),
		rtPerQuery:     reg.Histogram("serve_round_trips_per_query", metrics.CountBuckets),
		coalesced:      reg.Counter("serve_coalesced_total"),
		probeRequests:  reg.Counter("serve_probe_requests_total"),
		traces:         reg.Counter("serve_traces_total"),
		slowQueries:    reg.Counter("serve_slow_queries_total"),
	}
	for i, f := range oracle.TelemetryFields {
		m.telemetry[i] = reg.Counter("serve_" + f.Name + "_total")
	}
	for _, kind := range queryKinds {
		m.queries[kind] = reg.Counter(fmt.Sprintf("serve_queries_total{kind=%s}", kind))
		m.latency[kind] = reg.Histogram(fmt.Sprintf("serve_query_latency_us{kind=%s}", kind), metrics.LatencyBucketsUS)
	}
	return m
}

// observeExec records one oracle execution's probe and transport
// figures. Called inside the coalescing flight, so a shared hot key is
// charged exactly once.
func (m *serverMetrics) observeExec(st oracle.Stats) {
	m.probes.Add(st.Total())
	m.probesPerQuery.Observe(float64(st.Total()))
	if st.RoundTrips > 0 {
		m.rtPerQuery.Observe(float64(st.RoundTrips))
	}
	for i, f := range oracle.TelemetryFields {
		m.telemetry[i].Add(f.Value(&st.Telemetry))
	}
}

// observeRequest records one served query request (coalesced waiters
// included — each request's own wall-clock latency matters to its
// caller).
func (m *serverMetrics) observeRequest(kind string, elapsed time.Duration) {
	m.queries[kind].Inc()
	m.latency[kind].Observe(float64(elapsed.Microseconds()))
}

// errCounter returns the error counter for an HTTP status. Statuses come
// from the server's own fixed error vocabulary, so the name set is
// bounded.
func (m *serverMetrics) errCounter(status int) *metrics.Counter {
	return m.reg.Counter(fmt.Sprintf("serve_errors_total{status=%d}", status))
}

// Metrics returns the server's metrics registry (for CLIs and tests; the
// HTTP surface is GET /metrics).
func (s *Server) Metrics() *metrics.Registry { return s.met.reg }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("format") {
	case "", "json":
		writeJSON(w, http.StatusOK, s.met.reg.Snapshot())
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = s.met.reg.WriteText(w)
	default:
		s.writeError(w, badRequest("parameter \"format\": want json or text"))
	}
}

// request IDs ----------------------------------------------------------

// newRequestID returns a fresh random correlation ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "ffffffffffffffff" // rand failure: still correlatable, never fatal
	}
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID accepts a client-supplied ID only when it is short
// and printable-safe — the ID is echoed into headers and logs.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == ':'
		if !ok {
			return ""
		}
	}
	return id
}

// withRequestID attaches the correlation ID before any handler runs, so
// every response — answers, envelopes, probe-plane replies — carries it
// and clients (lcaload, tenant logs) can correlate failures end to end.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeRequestID(r.Header.Get(RequestIDHeader))
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r)
	})
}

// writeError writes the envelope and counts it on the metrics plane; the
// request ID lands in the envelope via the response header set by
// withRequestID.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if he, ok := err.(*httpError); ok {
		status = he.status
	}
	s.met.errCounter(status).Inc()
	s.logError(w, status, err)
	writeHTTPError(w, err)
}
