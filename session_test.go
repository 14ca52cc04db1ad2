package lca_test

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"lca"
)

func sessionGraph() *lca.Graph { return lca.Gnp(150, 0.08, 11) }

func TestSessionPointQueries(t *testing.T) {
	g := sessionGraph()
	s := lca.NewSession(g, lca.WithSeed(7))
	e := g.Edges()[0]
	in, err := s.Edge("spanner3", e.U, e.V)
	if err != nil {
		t.Fatal(err)
	}
	// Must agree with the flat constructor for the same (graph, seed).
	if want := lca.NewSpanner3(lca.NewOracle(g), 7).QueryEdge(e.U, e.V); in != want {
		t.Fatalf("Session.Edge = %v, flat constructor = %v", in, want)
	}
	if _, err := s.Vertex("mis", 3); err != nil {
		t.Fatal(err)
	}
	c, err := s.Label("coloring", 3)
	if err != nil {
		t.Fatal(err)
	}
	if c < 0 || c > g.MaxDegree() {
		t.Fatalf("color %d outside [0, Delta]", c)
	}
	ps, err := s.ProbeStats("spanner3")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Total() == 0 {
		t.Error("no probes accounted for spanner3")
	}
	if _, err := s.ProbeStats("spannr3"); err == nil {
		t.Error("typo'd algorithm name accepted by ProbeStats")
	}
}

func TestSessionAliasSharesInstance(t *testing.T) {
	g := sessionGraph()
	s := lca.NewSession(g, lca.WithSeed(7))
	e := g.Edges()[0]
	if _, err := s.Edge("3", e.U, e.V); err != nil {
		t.Fatal(err)
	}
	// The alias query must be accounted under the canonical name: one
	// instance, one probe account, regardless of which name is used.
	canon, err := s.ProbeStats("spanner3")
	if err != nil {
		t.Fatal(err)
	}
	if canon.Total() == 0 {
		t.Error("alias query not accounted under canonical name")
	}
	aliased, err := s.ProbeStats("3")
	if err != nil {
		t.Fatal(err)
	}
	if aliased != canon {
		t.Error("alias and canonical probe stats differ")
	}
}

func TestSessionConsistentAcrossSessions(t *testing.T) {
	g := sessionGraph()
	s1 := lca.NewSession(g, lca.WithSeed(42))
	s2 := lca.NewSession(g, lca.WithSeed(42))
	for i, e := range g.Edges() {
		if i >= 25 {
			break
		}
		a, err1 := s1.Edge("matching", e.U, e.V)
		b, err2 := s2.Edge("matching", e.U, e.V)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b {
			t.Fatalf("sessions with equal seeds disagree on edge (%d,%d)", e.U, e.V)
		}
	}
}

func TestSessionErrors(t *testing.T) {
	g := sessionGraph()
	s := lca.NewSession(g)
	if _, err := s.Edge("nosuch", 0, 1); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// Each point method refuses an algorithm of another kind, and accepts
	// its own on an input edge.
	if _, err := s.Edge("mis", 0, 1); err == nil || !strings.Contains(err.Error(), "vertex") {
		t.Errorf("kind mismatch not reported: %v", err)
	}
	if _, err := s.Vertex("spanner3", 0); err == nil || !strings.Contains(err.Error(), "edge") {
		t.Errorf("Vertex accepted an edge-kind algorithm: %v", err)
	}
	if _, err := s.Label("matching", 0); err == nil || !strings.Contains(err.Error(), "edge") {
		t.Errorf("Label accepted an edge-kind algorithm: %v", err)
	}
	e := g.Edges()[0]
	if _, err := s.Edge("spanner3", e.U, e.V); err != nil {
		t.Errorf("Edge(spanner3) on an input edge: %v", err)
	}
	if _, err := s.Vertex("mis", -1); err == nil {
		t.Error("negative vertex accepted")
	}
	if _, err := s.Vertex("mis", g.N()); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if _, _, err := s.BuildSubgraph("coloring"); err == nil {
		t.Error("BuildSubgraph on a label-kind algorithm accepted")
	}
	// Non-edges are rejected: the LCA contract only defines answers for
	// input edges (matches the HTTP surface's 400).
	nonU, nonV := -1, -1
outer:
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				nonU, nonV = u, v
				break outer
			}
		}
	}
	if nonU >= 0 {
		if _, err := s.Edge("matching", nonU, nonV); err == nil {
			t.Error("non-edge query accepted")
		}
	}
}

func TestSessionParams(t *testing.T) {
	g := lca.Torus(12, 12)
	// k is declared by spannerk and silently irrelevant to mis: one
	// session can carry parameters for several algorithms.
	s := lca.NewSession(g, lca.WithSeed(3), lca.WithParam("k", 2), lca.WithParam("memo", true))
	h, _, err := s.BuildSubgraph("spannerk")
	if err != nil {
		t.Fatal(err)
	}
	cfg := lca.SpannerKConfig{Config: lca.SpannerConfig{Memo: true}}
	want, _ := lca.BuildSubgraph(g, lca.NewSpannerKConfig(lca.NewOracle(g), 2, 3, cfg))
	if h.M() != want.M() {
		t.Fatalf("session build has %d edges, flat build %d", h.M(), want.M())
	}
	if _, err := s.Vertex("mis", 0); err != nil {
		t.Fatalf("undeclared session param leaked into mis: %v", err)
	}
	// A mistyped value for a declared param is an error.
	bad := lca.NewSession(g, lca.WithParam("k", "two"))
	if _, err := bad.Edge("spannerk", 0, 1); err == nil {
		t.Error("mistyped parameter accepted")
	}
}

func TestSessionBuildMatchesSerial(t *testing.T) {
	g := sessionGraph()
	s := lca.NewSession(g, lca.WithSeed(9), lca.WithWorkers(4))
	h, stats, err := s.BuildSubgraph("spanner3")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries != g.M() {
		t.Fatalf("stats cover %d queries, want %d", stats.Queries, g.M())
	}
	serial, _ := lca.BuildSubgraph(g, lca.NewSpanner3(lca.NewOracle(g), 9))
	if h.M() != serial.M() {
		t.Fatalf("parallel session build %d edges, serial %d", h.M(), serial.M())
	}
	for _, e := range serial.Edges() {
		if !h.HasEdge(e.U, e.V) {
			t.Fatalf("edge (%d,%d) missing from session build", e.U, e.V)
		}
	}
	in, _, err := s.BuildVertexSet("mis")
	if err != nil {
		t.Fatal(err)
	}
	if err := lca.VerifyMaximalIndependentSet(g, in); err != nil {
		t.Fatal(err)
	}
	labels, _, err := s.BuildLabels("coloring")
	if err != nil {
		t.Fatal(err)
	}
	if err := lca.VerifyColoring(g, labels, g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
}

// budgetBuilds runs the batch build of each kind on s and returns the
// three answers and QueryStats, or the first error.
func budgetBuilds(s *lca.Session) (answers []any, stats []lca.QueryStats, err error) {
	h, qs, err := s.BuildSubgraph("spanner3")
	if err != nil {
		return nil, nil, err
	}
	answers, stats = append(answers, h.Edges()), append(stats, qs)
	in, qs, err := s.BuildVertexSet("mis")
	if err != nil {
		return nil, nil, err
	}
	answers, stats = append(answers, in), append(stats, qs)
	labels, qs, err := s.BuildLabels("coloring")
	if err != nil {
		return nil, nil, err
	}
	return append(answers, labels), append(stats, qs), nil
}

func TestSessionProbeBudget(t *testing.T) {
	g := sessionGraph()
	// A one-probe budget must trip on any real query.
	s := lca.NewSession(g, lca.WithSeed(5), lca.WithProbeBudget(1))
	if _, err := s.Vertex("mis", 0); !errors.Is(err, lca.ErrProbeBudget) {
		t.Fatalf("want ErrProbeBudget, got %v", err)
	}
	if _, _, err := s.BuildSubgraph("spanner3"); !errors.Is(err, lca.ErrProbeBudget) {
		t.Fatalf("budgeted BuildSubgraph: want ErrProbeBudget, got %v", err)
	}
	if _, _, err := s.BuildVertexSet("mis"); !errors.Is(err, lca.ErrProbeBudget) {
		t.Fatalf("budgeted BuildVertexSet: want ErrProbeBudget, got %v", err)
	}
	if _, _, err := s.BuildLabels("coloring"); !errors.Is(err, lca.ErrProbeBudget) {
		t.Fatalf("budgeted BuildLabels: want ErrProbeBudget, got %v", err)
	}
	// A generous budget changes nothing a build returns. A budgeted build
	// assembles on one worker, whatever WithWorkers says, so at 1 and at
	// 2 workers its answers and QueryStats are the unbudgeted serial
	// build's; its answers are every unbudgeted build's.
	serialAns, serialStats, err := budgetBuilds(lca.NewSession(g, lca.WithSeed(5), lca.WithWorkers(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		ans, stats, err := budgetBuilds(lca.NewSession(g, lca.WithSeed(5), lca.WithWorkers(workers), lca.WithProbeBudget(1_000_000)))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		freeAns, _, err := budgetBuilds(lca.NewSession(g, lca.WithSeed(5), lca.WithWorkers(workers)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ans, serialAns) || !reflect.DeepEqual(ans, freeAns) {
			t.Errorf("workers=%d: budgeted builds answer differently from unbudgeted ones", workers)
		}
		if !reflect.DeepEqual(stats, serialStats) {
			t.Errorf("workers=%d: budgeted QueryStats %v, unbudgeted serial %v", workers, stats, serialStats)
		}
	}
	// A generous budget must not trip, and answers must match the
	// unbudgeted session.
	roomy := lca.NewSession(g, lca.WithSeed(5), lca.WithProbeBudget(1_000_000))
	free := lca.NewSession(g, lca.WithSeed(5))
	for v := 0; v < 20; v++ {
		a, err := roomy.Vertex("mis", v)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := free.Vertex("mis", v)
		if a != b {
			t.Fatalf("budgeted and unbudgeted sessions disagree on vertex %d", v)
		}
	}
}

func TestSessionEstimate(t *testing.T) {
	g := sessionGraph()
	s := lca.NewSession(g, lca.WithSeed(13))
	res, err := s.EstimateFraction("mis", 200, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fraction < 0 || res.Fraction > 1 || res.Samples != 200 {
		t.Fatalf("estimate %+v", res)
	}
	again, err := s.EstimateFraction("mis", 200, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fraction != again.Fraction {
		t.Error("repeated estimates are not deterministic")
	}
	if _, err := s.EstimateFraction("spanner3", 100, 0.05); err != nil {
		t.Fatalf("edge-kind estimate: %v", err)
	}
	if _, err := s.EstimateFraction("coloring", 100, 0.05); err == nil {
		t.Error("label-kind estimate accepted")
	}
	if _, err := s.EstimateFraction("mis", 0, 0.05); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestSessionAlgos(t *testing.T) {
	s := lca.NewSession(sessionGraph())
	algos := s.Algos()
	if len(algos) < 7 {
		t.Fatalf("only %d algorithms discoverable", len(algos))
	}
	kinds := map[string]string{}
	for _, a := range algos {
		kinds[a.Name] = a.Kind
	}
	if kinds["spanner3"] != "edge" || kinds["mis"] != "vertex" || kinds["coloring"] != "label" {
		t.Fatalf("unexpected catalog %v", kinds)
	}
}

// countingSource counts every probe that reaches the graph under it.
type countingSource struct {
	*lca.Graph
	probes atomic.Uint64
}

func (c *countingSource) Degree(v int) int {
	c.probes.Add(1)
	return c.Graph.Degree(v)
}

func (c *countingSource) Neighbor(v, i int) int {
	c.probes.Add(1)
	return c.Graph.Neighbor(v, i)
}

func (c *countingSource) Adjacency(u, v int) int {
	c.probes.Add(1)
	return c.Graph.Adjacency(u, v)
}

// TestSessionEstimateUsesRowCache: EstimateFraction probes through the
// session's row tier like every other query, so a second estimate over a
// WithRowCache session finds the first one's rows in the shared L2 and
// reaches the source less often — with the same answer.
func TestSessionEstimateUsesRowCache(t *testing.T) {
	src := &countingSource{Graph: sessionGraph()}
	s := lca.NewSessionFromSource(src, lca.WithSeed(13), lca.WithRowCache(1<<12))
	estimate := func() (lca.EstimateResult, uint64) {
		before := src.probes.Load()
		res, err := s.EstimateFraction("mis", 200, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return res, src.probes.Load() - before
	}
	first, cold := estimate()
	second, warm := estimate()
	if first != second {
		t.Fatalf("estimates differ: %+v then %+v", first, second)
	}
	if warm >= cold {
		t.Fatalf("second estimate reached the source %d times, the first %d: the shared L2 was not used", warm, cold)
	}
}

// TestSessionTracing: each point query of a traced session records one
// parentless query:<kind> root tagged with the algorithm's name, with the
// oracle's spans nested under it; a non-edge query and a query past the
// probe budget leave their root tagged error as well.
func TestSessionTracing(t *testing.T) {
	g := lca.Gnp(200, 0.1, 7) // (0,47) is an edge, (0,2) is not
	tr := lca.NewTracer()
	s := lca.NewSession(g, lca.WithSeed(42), lca.WithPrefetch(true), lca.WithProbeBudget(1200), lca.WithTracer(tr))
	cases := []struct {
		query    func() error
		op, algo string
		wantErr  string // "" for a query that answers
	}{
		{func() error { _, err := s.Edge("spanner3", 0, 47); return err }, "query:edge", "spanner3", ""},
		{func() error { _, err := s.Vertex("mis", 3); return err }, "query:vertex", "mis", ""},
		{func() error { _, err := s.Label("coloring", 9); return err }, "query:label", "coloring", ""},
		{func() error { _, err := s.Edge("spanner3", 0, 2); return err }, "query:edge", "spanner3", "lca: (0,2) is not an edge of the graph"},
		{func() error { _, err := s.Vertex("mis", 150); return err }, "query:vertex", "mis", "lca: probe budget exceeded (budget 1200)"},
	}
	for _, c := range cases {
		before := tr.Len()
		if err := c.query(); (err == nil) != (c.wantErr == "") || (err != nil && err.Error() != c.wantErr) {
			t.Fatalf("%s %s: error %v, want %q", c.op, c.algo, err, c.wantErr)
		}
		spans := tr.Spans()[before:]
		if len(spans) == 0 {
			t.Fatalf("%s %s recorded no span", c.op, c.algo)
		}
		root := spans[0]
		wantTags := []string{"algo=" + c.algo}
		if c.wantErr != "" {
			wantTags = append(wantTags, "error")
		}
		if root.Op != c.op || root.Parent != 0 || !reflect.DeepEqual(root.Tags, wantTags) {
			t.Errorf("%s %s: root %+v, want a parentless %s tagged %v", c.op, c.algo, root, c.op, wantTags)
		}
		under := map[uint32]bool{root.ID: true}
		for _, sp := range spans[1:] {
			if !under[sp.Parent] {
				t.Errorf("%s %s: span %+v is not under the query's root", c.op, c.algo, sp)
			}
			under[sp.ID] = true
		}
		if c.wantErr == "" && len(spans) < 2 {
			t.Errorf("%s %s: no oracle span under the root", c.op, c.algo)
		}
	}
}
