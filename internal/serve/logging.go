package serve

// Structured request logging. The server is a library and stays silent
// by default; WithLogger installs a log/slog logger and the server then
// emits one line per served query — request_id, tenant, kind,
// algorithm, the probe total, every nonzero telemetry field, and the
// trace id when the request was sampled — plus one line per error
// envelope written. The lines carry the same correlation keys as the
// error envelopes and the trace plane, so a slow-query investigation
// can pivot from a log line to /traces/{id} to the exact rpc span that
// cost the time.

import (
	"log/slog"
	"net/http"
	"time"

	"lca/internal/oracle"
)

// WithLogger installs a structured request logger (nil keeps the
// library default: silent).
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// logQuery emits one request line for a served query, whose answer ans
// is a pointAnswer. The answer's telemetry is logged the way the answers
// carry it: each nonzero field under its oracle.TelemetryFields name.
func (s *Server) logQuery(w http.ResponseWriter, kind, algo string, ten *tenantState, elapsed time.Duration, ans any) {
	if s.log == nil {
		return
	}
	a := ans.(pointAnswer)
	attrs := make([]any, 0, 16+2*len(oracle.TelemetryFields))
	attrs = append(attrs,
		"request_id", w.Header().Get(RequestIDHeader),
		"kind", kind,
		"algo", algo,
		"status", http.StatusOK,
		"duration_us", elapsed.Microseconds(),
		"probes", a.Probes,
	)
	for _, f := range oracle.TelemetryFields {
		if v := f.Value(&a.Telemetry); v != 0 {
			attrs = append(attrs, f.Name, v)
		}
	}
	if ten != nil {
		attrs = append(attrs, "tenant", ten.Name)
	}
	if a.TraceID != "" {
		attrs = append(attrs, "trace_id", a.TraceID)
	}
	s.log.Info("query", attrs...)
}

// logError emits one line per error envelope written.
func (s *Server) logError(w http.ResponseWriter, status int, err error) {
	if s.log == nil {
		return
	}
	s.log.Warn("request failed",
		"request_id", w.Header().Get(RequestIDHeader),
		"status", status,
		"error", err.Error(),
	)
}
