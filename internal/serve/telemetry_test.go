package serve

// Telemetry through the oracle chains and onto the serving surfaces: one
// table-driven test walks every pass-through wrapper alone and the full
// chains Session and the server build, and one iterates the telemetry
// name table against answers, /metrics and QueryStats.String.

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"lca/internal/core"
	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/oracle"
	"lca/internal/registry"
	"lca/internal/rnd"
	"lca/internal/source"
)

// meteredSource reports every source-side telemetry producer with its
// own figure, each advancing at its own rate per probe from its own
// nonzero start, so a missed baseline, a missed producer or a producer
// read twice all show. Locality is exposed only through Caps(), the way
// wrapping sources such as source.Attested carry it.
type meteredSource struct {
	g      *graph.Graph
	probes uint64
}

var (
	_ source.CapSource        = (*meteredSource)(nil)
	_ source.BatchProber      = (*meteredSource)(nil)
	_ source.RoundTripCounter = (*meteredSource)(nil)
	_ source.FailoverCounter  = (*meteredSource)(nil)
	_ source.AttestCounter    = (*meteredSource)(nil)
)

func (m *meteredSource) N() int { return m.g.N() }

func (m *meteredSource) Degree(v int) int {
	m.probes++
	return m.g.Degree(v)
}

func (m *meteredSource) Neighbor(v, i int) int {
	m.probes++
	return m.g.Neighbor(v, i)
}

func (m *meteredSource) Adjacency(u, v int) int {
	m.probes++
	return m.g.Adjacency(u, v)
}

// ProbeBatch answers a batch as one probe's worth of every figure.
func (m *meteredSource) ProbeBatch(ps []source.ProbeReq) ([]int, error) {
	m.probes++
	out := make([]int, len(ps))
	for i, p := range ps {
		switch p.Op {
		case source.OpDegree:
			out[i] = m.g.Degree(p.A)
		case source.OpNeighbor:
			out[i] = m.g.Neighbor(p.A, p.B)
		default:
			out[i] = m.g.Adjacency(p.A, p.B)
		}
	}
	return out, nil
}

func (m *meteredSource) RoundTrips() uint64     { return 1000 + m.probes }
func (m *meteredSource) Failovers() uint64      { return 2000 + 2*m.probes }
func (m *meteredSource) Hedges() uint64         { return 3000 + 3*m.probes }
func (m *meteredSource) AttestFailures() uint64 { return 4000 + 4*m.probes }
func (m *meteredSource) ProofBytes() uint64     { return 5000 + 5*m.probes }

func (m *meteredSource) Caps() source.Caps {
	return source.Caps{Locality: func() (uint64, uint64) { return 6000 + 6*m.probes, 7000 + 7*m.probes }}
}

// reading is the source's own report of its figures.
func (m *meteredSource) reading() oracle.Telemetry {
	pages, local := m.Caps().Locality()
	return oracle.Telemetry{
		RoundTrips: m.RoundTrips(), Failovers: m.Failovers(), Hedges: m.Hedges(),
		AttestFailures: m.AttestFailures(), ProofBytes: m.ProofBytes(),
		PageTouches: pages, LocalHits: local,
	}
}

// chainQueries runs mis and coloring over o for a fixed vertex sample
// and returns the answers in order.
func chainQueries(t *testing.T, o oracle.Oracle) []int {
	t.Helper()
	var out []int
	for _, algo := range []string{"mis", "coloring"} {
		d, err := registry.Get(algo)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := d.Build(o, rnd.Seed(42), registry.Params{})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 60; v += 7 {
			switch lca := inst.(type) {
			case core.VertexLCA:
				out = append(out, b2i(lca.QueryVertex(v)))
			case core.LabelLCA:
				out = append(out, lca.QueryLabel(v))
			}
		}
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestTelemetryChains: over every wrapper alone and over the full chains
// Session and the server build, Counter.Stats reports exactly the
// source's own figures plus each meter's, each once; Reset rebaselines;
// and answers and probe counts match the bare source.
func TestTelemetryChains(t *testing.T) {
	g := gen.Gnp(120, 0.08, 5)
	const budget = 1 << 40
	cases := []struct {
		name  string
		build func(src *meteredSource) (oracle.Oracle, []oracle.Meter)
	}{
		{"bare", func(s *meteredSource) (oracle.Oracle, []oracle.Meter) { return s, nil }},
		{"counter", func(s *meteredSource) (oracle.Oracle, []oracle.Meter) { return oracle.NewCounter(s), nil }},
		{"caching", func(s *meteredSource) (oracle.Oracle, []oracle.Meter) { return oracle.NewCaching(s), nil }},
		{"limit", func(s *meteredSource) (oracle.Oracle, []oracle.Meter) { return oracle.NewLimit(s, budget), nil }},
		{"limittrips", func(s *meteredSource) (oracle.Oracle, []oracle.Meter) {
			return oracle.NewLimitTrips(s, budget), nil
		}},
		{"prefetch", func(s *meteredSource) (oracle.Oracle, []oracle.Meter) {
			p := oracle.NewPrefetch(s, oracle.WithFetchWidth(2)) // rows outgrow it: remainder trips
			return p, []oracle.Meter{p}
		}},
		{"tiered", func(s *meteredSource) (oracle.Oracle, []oracle.Meter) {
			tr := oracle.NewTiered(s, oracle.NewRowCache(64, oracle.EvictLRU))
			return tr, []oracle.Meter{tr}
		}},
		{"audit", func(s *meteredSource) (oracle.Oracle, []oracle.Meter) { return newAuditOracle(s), nil }},
		// Session: budget > prefetch > tier > source; its parallel label
		// assembly adds the shared caching tier under the budget.
		{"session", func(s *meteredSource) (oracle.Oracle, []oracle.Meter) {
			tr := oracle.NewTiered(s, oracle.NewRowCache(64, oracle.EvictLRU))
			p := oracle.NewPrefetch(tr)
			return oracle.NewLimit(p, budget), []oracle.Meter{p, tr}
		}},
		{"session-labels", func(s *meteredSource) (oracle.Oracle, []oracle.Meter) {
			tr := oracle.NewTiered(s, oracle.NewRowCache(64, oracle.EvictLRU))
			p := oracle.NewPrefetch(tr)
			return oracle.NewLimit(oracle.NewCaching(p), budget), []oracle.Meter{p, tr}
		}},
		// The server: audit > trip budget > probe budget > prefetch > source.
		{"serve", func(s *meteredSource) (oracle.Oracle, []oracle.Meter) {
			p := oracle.NewPrefetch(s)
			ten := &tenantState{Tenant: Tenant{ProbeBudget: budget, RoundTripBudget: budget}}
			return newAuditOracle(ten.budgetWrap(p)), []oracle.Meter{p}
		}},
	}
	bare := oracle.NewCounter(&meteredSource{g: g})
	wantAnswers := chainQueries(t, bare)
	wantProbes := bare.Stats()

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := &meteredSource{g: g}
			top, meters := tc.build(src)
			expect := func() oracle.Telemetry {
				tel := src.reading()
				for _, m := range meters {
					m.Measure(&tel)
				}
				return tel
			}
			c := oracle.NewCounter(top)
			before, srcBefore := expect(), src.reading()
			answers := chainQueries(t, c)
			st := c.Stats()
			if fmt.Sprint(answers) != fmt.Sprint(wantAnswers) {
				t.Fatalf("answers %v, bare chain answers %v", answers, wantAnswers)
			}
			if st.Neighbor != wantProbes.Neighbor || st.Degree != wantProbes.Degree || st.Adjacency != wantProbes.Adjacency {
				t.Fatalf("probe counts %+v, bare chain counts %+v", st, wantProbes)
			}
			want := expect().Sub(before)
			if st.Telemetry != want {
				t.Fatalf("Counter telemetry %+v, source and meters report %+v", st.Telemetry, want)
			}
			if st.RoundTrips == 0 || st.PageTouches == 0 {
				t.Fatalf("the source's figures never moved: %+v", st.Telemetry)
			}
			if len(meters) > 0 && want == src.reading().Sub(srcBefore) {
				t.Fatalf("the chain's meters never moved: %+v", want)
			}
			c.Reset()
			if got := c.Stats().Telemetry; got != (oracle.Telemetry{FetchWidth: want.FetchWidth}) {
				t.Fatalf("after Reset the counter reports %+v, want zero counters", got)
			}
			before = expect()
			c.Neighbors(3)
			if got, want := c.Stats().Telemetry, expect().Sub(before); got != want {
				t.Fatalf("after Reset: %+v, want %+v", got, want)
			}
		})
	}
}

// TestTelemetrySurfaces iterates the telemetry name table: every field
// appears under its name in each serve answer when nonzero (and not when
// zero), every counter has its serve_<name>_total in /metrics, and
// QueryStats.String prints every nonzero field by name.
func TestTelemetrySurfaces(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != 200 {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, f := range oracle.TelemetryFields {
		var tel oracle.Telemetry
		// Set the field through its JSON name, the table's own key.
		body, _ := json.Marshal(map[string]uint64{f.Name: 17})
		if err := json.Unmarshal(body, &tel); err != nil {
			t.Fatal(err)
		}
		if f.Value(&tel) != 17 {
			t.Fatalf("%s: the JSON name does not address its own field", f.Name)
		}
		for _, ans := range []any{
			edgeAnswer{Telemetry: tel}, vertexAnswer{Telemetry: tel}, labelAnswer{Telemetry: tel},
		} {
			js, err := json.Marshal(ans)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(js), `"`+f.Name+`":17`) {
				t.Errorf("%T does not carry %s when nonzero: %s", ans, f.Name, js)
			}
		}
		if js, _ := json.Marshal(vertexAnswer{}); strings.Contains(string(js), `"`+f.Name+`"`) {
			t.Errorf("answers carry %s when zero: %s", f.Name, js)
		}
		metric := "serve_" + f.Name + "_total"
		if _, ok := snap.Counters[metric]; ok == f.Gauge {
			t.Errorf("/metrics has %s: %v, want %v (gauge %v)", metric, ok, !f.Gauge, f.Gauge)
		}
		qs := core.QueryStats{ByKind: oracle.Stats{Telemetry: tel}}
		if !strings.Contains(qs.String(), " "+f.Name+"=17") {
			t.Errorf("QueryStats.String() = %q, missing %s", qs.String(), f.Name)
		}
	}
}
