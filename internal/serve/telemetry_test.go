package serve

// Telemetry through the oracle chains and onto the serving surfaces: one
// test walks every chain the builder can produce, the wrappers outside
// it and the server's audited chain, and one iterates the telemetry name
// table against answers, /metrics and QueryStats.String.

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"lca/internal/attest"
	"lca/internal/core"
	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/oracle"
	"lca/internal/registry"
	"lca/internal/rnd"
	"lca/internal/source"
	"lca/internal/trace"
)

// meteredSource reports every source-side telemetry producer with its
// own figure, each advancing at its own rate per probe from its own
// nonzero start, so a missed baseline, a missed producer or a producer
// read twice all show. Locality and FetchRows are exposed only through
// Caps(), the way wrapping sources such as source.Attested carry them, so
// every chain with the row tier fetches its rows in batches.
type meteredSource struct {
	g      *graph.Graph
	probes uint64
}

var (
	_ source.CapSource        = (*meteredSource)(nil)
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

// fetchRows answers a batch of rows as one probe's worth of every figure.
func (m *meteredSource) fetchRows(vs []int) ([][]int, error) {
	m.probes++
	rows := make([][]int, len(vs))
	for i, v := range vs {
		rows[i] = make([]int, m.g.Degree(v))
		for j := range rows[i] {
			rows[i][j] = m.g.Neighbor(v, j)
		}
	}
	return rows, nil
}

func (m *meteredSource) RoundTrips() uint64     { return 1000 + m.probes }
func (m *meteredSource) Failovers() uint64      { return 2000 + 2*m.probes }
func (m *meteredSource) Hedges() uint64         { return 3000 + 3*m.probes }
func (m *meteredSource) AttestFailures() uint64 { return 4000 + 4*m.probes }
func (m *meteredSource) ProofBytes() uint64     { return 5000 + 5*m.probes }

func (m *meteredSource) Caps() source.Caps {
	return source.Caps{
		FetchRows: m.fetchRows,
		Locality:  func() (uint64, uint64) { return 6000 + 6*m.probes, 7000 + 7*m.probes },
	}
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

// chainLayers are the builder's layers, in its order, by case label.
var chainLayers = []struct {
	name string
	set  func(*oracle.ChainConfig)
}{
	{"prefetch", func(c *oracle.ChainConfig) { c.Prefetch = true }},
	{"tiered", func(c *oracle.ChainConfig) { c.RowCache = oracle.NewRowCache(64) }},
	{"limit", func(c *oracle.ChainConfig) { c.ProbeBudget = 1 << 40 }},
	{"limittrips", func(c *oracle.ChainConfig) { c.TripBudget = 1 << 40 }},
	{"traced", func(c *oracle.ChainConfig) { c.Tracer = trace.New(trace.NewID(), trace.DefaultMaxSpans) }},
}

// chainCase is one chain under test, built over a fresh source.
type chainCase struct {
	name  string
	build func(*meteredSource) oracle.Oracle
}

// builtChains enumerates every chain oracle.NewChain can build: one case
// per subset of its layers ("bare" for none), labelled by the layers it
// has, joined by "+".
func builtChains() []chainCase {
	var cases []chainCase
	for mask := 0; mask < 1<<len(chainLayers); mask++ {
		var names []string
		var sets []func(*oracle.ChainConfig)
		for i, l := range chainLayers {
			if mask&(1<<i) != 0 {
				names = append(names, l.name)
				sets = append(sets, l.set)
			}
		}
		name := strings.Join(names, "+")
		if name == "" {
			name = "bare"
		}
		cases = append(cases, chainCase{name, func(s *meteredSource) oracle.Oracle {
			var cfg oracle.ChainConfig
			for _, set := range sets {
				set(&cfg)
			}
			return oracle.NewChain(s, cfg)
		}})
	}
	return cases
}

// metersOf returns the meters down o's chain.
func metersOf(o oracle.Oracle) []oracle.Meter {
	var meters []oracle.Meter
	for o != nil {
		if m, ok := o.(oracle.Meter); ok {
			meters = append(meters, m)
		}
		u, ok := o.(interface{ Unwrap() oracle.Oracle })
		if !ok {
			break
		}
		o = u.Unwrap()
	}
	return meters
}

// TestTelemetryChains: over every chain the builder produces, over the
// wrappers outside it and over the server's audited chain, Counter.Stats
// reports exactly the source's own figures plus each meter's, each once;
// Reset rebaselines; and answers and probe counts match the bare source.
// Each case runs on its own graph, seeded from its label (Derive), so a
// failure replays from its name alone.
func TestTelemetryChains(t *testing.T) {
	cases := append(builtChains(),
		chainCase{"counter", func(s *meteredSource) oracle.Oracle { return oracle.NewCounter(s) }},
		chainCase{"audit", func(s *meteredSource) oracle.Oracle { return newAuditOracle(s) }},
		// The server: its audit recorder outermost over the chain a
		// budgeted tenant's prefetching request selects.
		chainCase{"serve", func(s *meteredSource) oracle.Oracle {
			ten := &tenantState{Tenant: Tenant{ProbeBudget: 1 << 40, RoundTripBudget: 1 << 40}}
			return newAuditOracle(oracle.NewChain(s, ten.chainConfig(true, nil)))
		}},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.Gnp(120, 0.08, rnd.Seed(attest.Derive(0x7e1e, tc.name)))
			bare := oracle.NewCounter(&meteredSource{g: g})
			wantAnswers := chainQueries(t, bare)
			wantProbes := bare.Stats()

			src := &meteredSource{g: g}
			top := tc.build(src)
			meters := metersOf(top)
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
			if len(meters) > 0 && (want == src.reading().Sub(srcBefore) || want.L1Hits == 0) {
				t.Fatalf("the chain's meters never moved, or its tier served no row twice: %+v", want)
			}
			c.Reset()
			if got := c.Stats().Telemetry; got != (oracle.Telemetry{}) {
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
// appears under its name in each serve answer and in its request log
// line when nonzero (and not when zero), every field has its
// serve_<name>_total in /metrics, and QueryStats.String prints every
// nonzero field by name.
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
		if _, ok := snap.Counters[metric]; !ok {
			t.Errorf("/metrics lacks %s", metric)
		}
		qs := core.QueryStats{ByKind: oracle.Stats{Telemetry: tel}}
		if !strings.Contains(qs.String(), " "+f.Name+"=17") {
			t.Errorf("QueryStats.String() = %q, missing %s", qs.String(), f.Name)
		}
		for _, ans := range []any{
			edgeAnswer{Telemetry: tel}, vertexAnswer{Telemetry: tel}, labelAnswer{Telemetry: tel},
		} {
			var line strings.Builder
			s := &Server{log: slog.New(slog.NewTextHandler(&line, nil))}
			s.logQuery(httptest.NewRecorder(), "label", "coloring", nil, 0, ans)
			if !strings.Contains(line.String(), " "+f.Name+"=17") {
				t.Errorf("the request log line of %T does not carry %s: %s", ans, f.Name, line.String())
			}
			for _, g := range oracle.TelemetryFields {
				if g.Name != f.Name && strings.Contains(line.String(), " "+g.Name+"=") {
					t.Errorf("the request log line carries %s when zero: %s", g.Name, line.String())
				}
			}
		}
	}
}
