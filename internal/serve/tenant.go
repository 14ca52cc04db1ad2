package serve

// The tenant layer: token → tenant resolution from a static config, and
// per-tenant admission control. A tenant's currency is exactly what the
// theory guarantees is small — probes and round trips per query
// (Rubinfeld et al.'s polylog probe bounds are what make a per-query
// probe budget a meaningful contract rather than an arbitrary quota) —
// plus a sustained-QPS token bucket for the request plane. All tenant
// state is O(1) per configured tenant: a bucket level, a timestamp and a
// few counters.
//
// Budgets are enforced per query through the oracle layer's existing
// budget machinery: oracle.NewLimit charges every cell the algorithm
// reads, oracle.NewLimitTrips bounds backend round trips, and either
// exhaustion surfaces as a 429 with the JSON error envelope. The token
// bucket rejects before any oracle work happens, also with a 429.
//
// A server constructed without WithTenants is open (the trusted-network
// default every existing caller keeps); once tenants are configured, the
// query plane requires a token on every request. The probe wire plane
// (/probe*) stays open deliberately: it is fleet-internal — replicas
// probing each other — and its transport security story (TLS + shard
// tokens) is tracked separately in the ROADMAP.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"lca/internal/metrics"
	"lca/internal/oracle"
	"lca/internal/trace"
)

// TokenHeader is the dedicated tenant-token request header. The standard
// "Authorization: Bearer TOKEN" form is accepted equivalently.
const TokenHeader = "X-LCA-Token"

// Tenant is one static tenant configuration entry. Zero-valued budgets
// are unlimited, so {"name": "ops", "token": "..."} is a full-privilege
// tenant.
type Tenant struct {
	// Name identifies the tenant in metrics and logs; never sent back to
	// other tenants.
	Name string `json:"name"`
	// Token authenticates the tenant (Authorization: Bearer or the
	// X-LCA-Token header).
	Token string `json:"token"`
	// ProbeBudget caps cell probes per query (0 = unlimited). Exhaustion
	// answers 429.
	ProbeBudget uint64 `json:"probe_budget,omitempty"`
	// RoundTripBudget caps backend network round trips per query
	// (0 = unlimited; local sources consume none). Exhaustion answers 429.
	RoundTripBudget uint64 `json:"round_trip_budget,omitempty"`
	// QPS is the sustained admission rate of the token bucket
	// (0 = unlimited).
	QPS float64 `json:"qps,omitempty"`
	// Burst is the bucket size; defaults to max(1, QPS).
	Burst float64 `json:"burst,omitempty"`
}

// LoadTenantsFile reads a JSON array of Tenant entries — the static
// config format of lcaserve's -tenants flag.
func LoadTenantsFile(path string) ([]Tenant, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenants config: %w", err)
	}
	var ts []Tenant
	if err := json.Unmarshal(b, &ts); err != nil {
		return nil, fmt.Errorf("tenants config %s: %w", path, err)
	}
	return ts, nil
}

// tenantState is one tenant's runtime state: the token bucket plus its
// metric handles.
type tenantState struct {
	Tenant

	mu     sync.Mutex
	tokens float64
	filled time.Time

	queries           *metrics.Counter
	admissionRejected *metrics.Counter
	budgetRejected    *metrics.Counter
}

// admit runs the token bucket: one request costs one token, tokens
// refill at QPS up to Burst. A nil state (open server) and a QPS-less
// tenant always admit.
func (t *tenantState) admit(now time.Time) bool {
	if t == nil || t.QPS <= 0 {
		return true
	}
	burst := t.Burst
	if burst < 1 {
		burst = math.Max(1, t.QPS)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.filled.IsZero() {
		t.tokens = burst
	} else {
		t.tokens = math.Min(burst, t.tokens+now.Sub(t.filled).Seconds()*t.QPS)
	}
	t.filled = now
	if t.tokens < 1 {
		return false
	}
	t.tokens--
	return true
}

// chainConfig returns the oracle chain of one execution for this tenant:
// the request's prefetch selector, the tenant's per-query probe and
// round-trip budgets (none for a nil state, an open server) and the
// execution's tracer, which marks a budget exhaustion at the exact probe
// in the query's span tree.
func (t *tenantState) chainConfig(prefetch bool, tr *trace.Tracer) oracle.ChainConfig {
	cfg := oracle.ChainConfig{Prefetch: prefetch, Tracer: tr}
	if t != nil {
		cfg.ProbeBudget, cfg.TripBudget = t.ProbeBudget, t.RoundTripBudget
	}
	return cfg
}

// budgetKey folds the tenant's per-query enforcement into a coalescing
// key: only requests running under identical budgets may share one
// oracle execution, so a capped tenant can never receive an answer its
// own budget would have refused (nor vice versa).
func (t *tenantState) budgetKey() string {
	if t == nil {
		return "open"
	}
	return fmt.Sprintf("pb=%d,rb=%d", t.ProbeBudget, t.RoundTripBudget)
}

// WithTenants configures the static tenant table and closes the query
// plane: every /edge, /vertex, /label, /estimate, /graph and
// POST /sources request must then carry a configured token. Panics on an
// invalid table (construction-time config, not request data).
func WithTenants(tenants ...Tenant) Option {
	return func(s *Server) {
		if s.tenants == nil {
			s.tenants = map[string]*tenantState{}
		}
		for _, t := range tenants {
			if t.Name == "" || t.Token == "" {
				panic(fmt.Sprintf("serve: tenant %+v needs a non-empty name and token", t))
			}
			if _, dup := s.tenants[t.Token]; dup {
				panic(fmt.Sprintf("serve: duplicate tenant token for %q", t.Name))
			}
			s.tenants[t.Token] = &tenantState{Tenant: t}
		}
	}
}

// bindTenantMetrics resolves each tenant's metric handles once the
// server's registry exists (construction order: options run before the
// registry is final).
func (s *Server) bindTenantMetrics() {
	for _, t := range s.tenants {
		t.queries = s.met.reg.Counter(fmt.Sprintf("tenant_queries_total{tenant=%s}", t.Name))
		t.admissionRejected = s.met.reg.Counter(fmt.Sprintf("tenant_admission_rejected_total{tenant=%s}", t.Name))
		t.budgetRejected = s.met.reg.Counter(fmt.Sprintf("tenant_budget_rejected_total{tenant=%s}", t.Name))
	}
}

// requestToken extracts the tenant token: "Authorization: Bearer TOKEN"
// first, the X-LCA-Token header second.
func requestToken(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if tok, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(tok)
		}
	}
	return strings.TrimSpace(r.Header.Get(TokenHeader))
}

// tenantFor authenticates the request against the tenant table. An open
// server (no tenants configured) admits everyone as the nil tenant.
func (s *Server) tenantFor(r *http.Request) (*tenantState, error) {
	if len(s.tenants) == 0 {
		return nil, nil
	}
	tok := requestToken(r)
	if tok == "" {
		return nil, &httpError{status: http.StatusUnauthorized,
			msg: "missing tenant token (send Authorization: Bearer TOKEN or the " + TokenHeader + " header)"}
	}
	t, ok := s.tenants[tok]
	if !ok {
		return nil, &httpError{status: http.StatusUnauthorized, msg: "unknown tenant token"}
	}
	return t, nil
}

// admitTenant authenticates and runs admission control; the returned
// error is ready for the envelope writer (401 on auth, 429 with
// Retry-After on an empty bucket).
func (s *Server) admitTenant(w http.ResponseWriter, r *http.Request) (*tenantState, error) {
	t, err := s.tenantFor(r)
	if err != nil {
		return nil, err
	}
	if !t.admit(time.Now()) {
		t.admissionRejected.Inc()
		w.Header().Set("Retry-After", "1")
		return nil, &httpError{status: http.StatusTooManyRequests,
			msg: fmt.Sprintf("tenant %q over its admission rate (%.3g qps); retry with backoff", t.Name, t.QPS)}
	}
	if t != nil {
		t.queries.Inc()
	}
	return t, nil
}
