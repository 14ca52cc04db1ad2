package registry_test

import (
	"strings"
	"testing"

	"lca/internal/core"
	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/oracle"
	"lca/internal/registry"
	"lca/internal/rnd"

	// Register the built-in algorithm catalog.
	_ "lca/internal/coloring"
	_ "lca/internal/matching"
	_ "lca/internal/mis"
	_ "lca/internal/spanner"
)

const testSeed rnd.Seed = 99

func testGraph() *graph.Graph { return gen.Gnp(120, 0.08, 5) }

func TestCatalogPopulated(t *testing.T) {
	names := registry.Names()
	for _, want := range []string{
		"spanner3", "spanner5", "spannerk", "sparse", "superspanner",
		"spanner5mindeg", "mis", "matching", "vertexcover",
		"approxmatching", "coloring",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("algorithm %q not registered (have %v)", want, names)
		}
	}
}

// TestRoundTripDeterministic constructs every registered algorithm twice
// from its default parameters with the same seed and checks that a fixed
// query set answers identically across the two instances — the
// replica-consistency property the whole serving story rests on.
func TestRoundTripDeterministic(t *testing.T) {
	g := testGraph()
	edges := g.Edges()
	for _, d := range registry.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			a, err := d.Build(oracle.New(g), testSeed, nil)
			if err != nil {
				t.Fatalf("first build: %v", err)
			}
			b, err := d.Build(oracle.New(g), testSeed, nil)
			if err != nil {
				t.Fatalf("second build: %v", err)
			}
			switch d.Kind {
			case registry.KindEdge:
				la, lb := a.(core.EdgeLCA), b.(core.EdgeLCA)
				for i := 0; i < 40 && i < len(edges); i++ {
					e := edges[(i*17)%len(edges)]
					if la.QueryEdge(e.U, e.V) != lb.QueryEdge(e.U, e.V) {
						t.Fatalf("instances disagree on edge (%d,%d)", e.U, e.V)
					}
				}
			case registry.KindVertex:
				la, lb := a.(core.VertexLCA), b.(core.VertexLCA)
				for v := 0; v < g.N(); v += 3 {
					if la.QueryVertex(v) != lb.QueryVertex(v) {
						t.Fatalf("instances disagree on vertex %d", v)
					}
				}
			case registry.KindLabel:
				la, lb := a.(core.LabelLCA), b.(core.LabelLCA)
				for v := 0; v < g.N(); v += 3 {
					if la.QueryLabel(v) != lb.QueryLabel(v) {
						t.Fatalf("instances disagree on label of %d", v)
					}
				}
			default:
				t.Fatalf("unknown kind %q", d.Kind)
			}
		})
	}
}

// TestUnknownParamRejected checks that every descriptor rejects parameters
// it does not declare instead of silently ignoring them.
func TestUnknownParamRejected(t *testing.T) {
	g := testGraph()
	for _, d := range registry.All() {
		if _, err := d.Build(oracle.New(g), testSeed, registry.Params{"no_such_param": 1}); err == nil {
			t.Errorf("%s: unknown parameter accepted", d.Name)
		} else if !strings.Contains(err.Error(), "no_such_param") {
			t.Errorf("%s: error does not name the bad parameter: %v", d.Name, err)
		}
	}
}

// TestWrongTypeRejected checks type validation on declared parameters.
func TestWrongTypeRejected(t *testing.T) {
	g := testGraph()
	d, err := registry.Get("spannerk")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Build(oracle.New(g), testSeed, registry.Params{"k": "three"}); err == nil {
		t.Error("string accepted for int parameter k")
	}
	if _, err := d.Build(oracle.New(g), testSeed, registry.Params{"memo": 1}); err == nil {
		t.Error("int accepted for bool parameter memo")
	}
	// Ints are accepted for float parameters.
	if _, err := d.Build(oracle.New(g), testSeed, registry.Params{"hitconst": 3}); err != nil {
		t.Errorf("int rejected for float parameter hitconst: %v", err)
	}
}

// TestParamRangeRejected checks constructor-level range validation.
func TestParamRangeRejected(t *testing.T) {
	g := testGraph()
	cases := []struct {
		algo  string
		param string
		value int
	}{
		{"spannerk", "k", 0},
		{"approxmatching", "rounds", -1},
		{"superspanner", "r", 0},
	}
	for _, c := range cases {
		d, err := registry.Get(c.algo)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Build(oracle.New(g), testSeed, registry.Params{c.param: c.value}); err == nil {
			t.Errorf("%s: %s=%d accepted", c.algo, c.param, c.value)
		}
	}
}

// TestKindMismatch checks that Kind.Bind refuses an instance built for
// another kind and binds one built for its own.
func TestKindMismatch(t *testing.T) {
	g := testGraph()
	build := func(name string) any {
		inst, err := registry.Build(name, oracle.New(g), testSeed, nil)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		return inst
	}
	if _, ok := registry.KindEdge.Bind(build("mis")); ok {
		t.Error("KindEdge bound a vertex-kind algorithm")
	}
	if _, ok := registry.KindVertex.Bind(build("spanner3")); ok {
		t.Error("KindVertex bound an edge-kind algorithm")
	}
	if _, ok := registry.KindLabel.Bind(build("matching")); ok {
		t.Error("KindLabel bound an edge-kind algorithm")
	}
	ask, ok := registry.KindEdge.Bind(build("spanner3"))
	if !ok {
		t.Fatal("KindEdge refused spanner3")
	}
	e := g.Edges()[0]
	if a := ask(registry.Query{e.U, e.V}); a.In == nil || a.Label != nil {
		t.Errorf("spanner3 edge answer = %+v, want In alone", a)
	}
}

func TestAliases(t *testing.T) {
	for alias, canon := range map[string]string{
		"3": "spanner3", "5": "spanner5", "k": "spannerk",
		"cover": "vertexcover", "approx": "approxmatching",
	} {
		d, err := registry.Get(alias)
		if err != nil {
			t.Errorf("alias %q: %v", alias, err)
			continue
		}
		if d.Name != canon {
			t.Errorf("alias %q resolved to %q, want %q", alias, d.Name, canon)
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := registry.Get("nosuch"); err == nil {
		t.Error("unknown algorithm lookup succeeded")
	}
}

// TestResolveFillsDefaults checks that Resolve returns a complete map.
func TestResolveFillsDefaults(t *testing.T) {
	d, err := registry.Get("spannerk")
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Resolve(registry.Params{"k": 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Int("k") != 4 {
		t.Errorf("k = %d, want 4", p.Int("k"))
	}
	if p.Bool("memo") {
		t.Error("memo default should be false")
	}
	for _, spec := range d.Params {
		if _, ok := p[spec.Name]; !ok {
			t.Errorf("resolved params missing %q", spec.Name)
		}
	}
}
