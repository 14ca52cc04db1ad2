// Package registry is the single catalog of every LCA this library
// implements. Each algorithm package self-registers a Descriptor at init
// time — name, query kind, tunable parameters, a constructor from
// (oracle, seed, params), and optional invariant checkers — and every
// downstream surface (the Session facade, the HTTP server, lcabench,
// lcaverify, the estimators) dispatches through the catalog instead of
// hand-routing constructors. Adding a registry entry makes the algorithm
// appear on all of them with no further edits: the model's point is that
// any registered algorithm answers independent point queries through one
// oracle interface, so one descriptor is all the plumbing an algorithm
// needs.
package registry

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"lca/internal/core"
	"lca/internal/graph"
	"lca/internal/oracle"
	"lca/internal/rnd"
	"lca/internal/source"
)

// Kind is the query shape an algorithm answers.
type Kind string

// The three query kinds of the LCA model.
const (
	// KindEdge algorithms answer QueryEdge(u, v) bool — membership of an
	// input edge in a fixed subgraph (spanners, matchings).
	KindEdge Kind = "edge"
	// KindVertex algorithms answer QueryVertex(v) bool — membership of a
	// vertex in a fixed set (MIS, vertex cover).
	KindVertex Kind = "vertex"
	// KindLabel algorithms answer QueryLabel(v) int — a vertex's value in
	// a fixed labeling (colorings).
	KindLabel Kind = "label"
)

// Query is one point query's coordinates, in the order Kind.Coords
// names them: (u, v) for an edge query, v alone for a vertex or label
// query.
type Query [2]int

// Answer is one point query's answer: In for edge and vertex kinds,
// Label for label kinds. The other field stays nil, so an answer
// marshals to its kind's own key alone ({"in":true} or {"label":3}).
type Answer struct {
	In    *bool `json:"in,omitempty"`
	Label *int  `json:"label,omitempty"`
}

// kindSpec is one query kind's row of the kind table, the one place a
// kind's shape is decided: its coordinates, the op of its root span, and
// how to ask an instance built for it.
type kindSpec struct {
	coords []string
	span   string
	// bind returns inst's query method, false when inst does not answer
	// the kind's queries.
	bind func(inst any) (func(Query) Answer, bool)
}

var kinds = map[Kind]kindSpec{
	KindEdge: {[]string{"u", "v"}, "query:edge", func(inst any) (func(Query) Answer, bool) {
		l, ok := inst.(core.EdgeLCA)
		return func(q Query) Answer { in := l.QueryEdge(q[0], q[1]); return Answer{In: &in} }, ok
	}},
	KindVertex: {[]string{"v"}, "query:vertex", func(inst any) (func(Query) Answer, bool) {
		l, ok := inst.(core.VertexLCA)
		return func(q Query) Answer { in := l.QueryVertex(q[0]); return Answer{In: &in} }, ok
	}},
	KindLabel: {[]string{"v"}, "query:label", func(inst any) (func(Query) Answer, bool) {
		l, ok := inst.(core.LabelLCA)
		return func(q Query) Answer { label := l.QueryLabel(q[0]); return Answer{Label: &label} }, ok
	}},
}

func (k Kind) valid() bool { _, ok := kinds[k]; return ok }

// Coords names the coordinates of a k query, in Query order; nil for an
// unknown kind.
func (k Kind) Coords() []string { return kinds[k].coords }

// Span is the op of a k point query's root span.
func (k Kind) Span() string { return kinds[k].span }

// Bind returns inst's query method for kind k: it asks one query and
// returns its answer. ok is false when inst does not answer k's queries
// or k is unknown.
func (k Kind) Bind(inst any) (ask func(Query) Answer, ok bool) {
	spec, ok := kinds[k]
	if !ok {
		return nil, false
	}
	return spec.bind(inst)
}

// NotEdgeError reports an edge query whose (U,V) is not an edge of the
// input graph: an LCA's answers are defined for input edges only.
type NotEdgeError struct{ U, V int }

// Error implements the error interface.
func (e *NotEdgeError) Error() string {
	return fmt.Sprintf("(%d,%d) is not an edge of the graph", e.U, e.V)
}

// Ask answers one k query q: for an edge kind it first checks that q is
// an edge of src (a *NotEdgeError when it is not), then it asks the query
// method bind returns. Probing panics from the check and the query come
// back as errors (oracle.Catch); bind's own errors come back unchanged.
// bind runs after the check, so an instance built there sees only its own
// query's traffic.
func (k Kind) Ask(src source.Source, bind func() (func(Query) Answer, error), q Query) (a Answer, err error) {
	if k == KindEdge {
		var isEdge bool
		if err := oracle.Catch(func() { isEdge = src.Adjacency(q[0], q[1]) >= 0 }); err != nil {
			return a, err
		}
		if !isEdge {
			return a, &NotEdgeError{U: q[0], V: q[1]}
		}
	}
	ask, err := bind()
	if err != nil {
		return a, err
	}
	err = oracle.Catch(func() { a = ask(q) })
	return a, err
}

// Queries lists every k query over g in g's order: one per edge for an
// edge kind, one per vertex otherwise.
func (k Kind) Queries(g *graph.Graph) []Query {
	if k == KindEdge {
		qs := make([]Query, 0, g.M())
		for _, e := range g.Edges() {
			qs = append(qs, Query{e.U, e.V})
		}
		return qs
	}
	qs := make([]Query, g.N())
	for v := range qs {
		qs[v] = Query{v}
	}
	return qs
}

// QueryAt returns the k query rooted at vertex v of src: v itself, or
// for an edge kind the edge to v's first neighbor (one Neighbor probe of
// src; false when v has none).
func (k Kind) QueryAt(src source.Source, v int) (Query, bool) {
	if k != KindEdge {
		return Query{v}, true
	}
	w := src.Neighbor(v, 0)
	return Query{v, w}, w >= 0
}

// ParamType is the value type of a tunable parameter.
type ParamType string

// Supported parameter types.
const (
	TypeInt   ParamType = "int"
	TypeFloat ParamType = "float"
	TypeBool  ParamType = "bool"
)

// Param declares one tunable parameter of an algorithm.
type Param struct {
	// Name is the key under which values are passed (lower-case).
	Name string `json:"name"`
	// Type constrains the values accepted for this parameter.
	Type ParamType `json:"type"`
	// Default is the value used when the caller supplies none. Its dynamic
	// type must match Type (int, float64 or bool).
	Default any `json:"default"`
	// Help is a one-line description surfaced by /algos and -list.
	Help string `json:"help"`
}

// Params carries parameter values by name. Values must be int, float64 or
// bool; Resolve validates them against a descriptor's declarations.
type Params map[string]any

// Int returns the int value of a resolved parameter.
func (p Params) Int(name string) int { v, _ := p[name].(int); return v }

// Float returns the float64 value of a resolved parameter.
func (p Params) Float(name string) float64 { v, _ := p[name].(float64); return v }

// Bool returns the bool value of a resolved parameter.
func (p Params) Bool(name string) bool { v, _ := p[name].(bool); return v }

// Descriptor is one algorithm's registry entry.
type Descriptor struct {
	// Name is the canonical lookup key (lower-case, stable across PRs).
	Name string
	// Aliases are alternative lookup keys kept for CLI compatibility.
	Aliases []string
	// Kind is the query shape; it determines which interface the
	// constructed instance must satisfy and which harness applies.
	Kind Kind
	// Summary is a one-line human description.
	Summary string
	// Params declares the tunable parameters accepted by New.
	Params []Param
	// New constructs an instance over the oracle. p has been resolved:
	// every declared parameter is present with its declared type. The
	// returned instance must implement the query interface of Kind.
	New func(o oracle.Oracle, seed rnd.Seed, p Params) (any, error)

	// Optional invariant checkers consumed by lcaverify. Each validates a
	// materialized global solution against the input graph; nil means the
	// algorithm ships no checker. Only the hook matching Kind is used.
	CheckSubgraph  func(g, h *graph.Graph, seed rnd.Seed) error
	CheckVertexSet func(g *graph.Graph, in []bool) error
	CheckLabels    func(g *graph.Graph, labels []int) error

	// ReportSubgraph, when set on an edge-kind algorithm, returns extra
	// human-readable metrics about a materialized solution that the
	// checkers measure but do not pass/fail (for example the exact stretch
	// of a spanner whose bound depends on a parameter). lcaverify prints
	// it alongside the invariant verdict.
	ReportSubgraph func(g, h *graph.Graph) string
}

// param returns the declaration for name, if any.
func (d *Descriptor) param(name string) (Param, bool) {
	for _, p := range d.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// HasParam reports whether the descriptor declares the named parameter.
func (d *Descriptor) HasParam(name string) bool { _, ok := d.param(name); return ok }

// Resolve validates p against the declared parameters and returns a
// complete parameter map: every declared parameter present, defaults
// filled in. Unknown names and mismatched types are errors. Ints are
// accepted for float parameters.
func (d *Descriptor) Resolve(p Params) (Params, error) {
	out := make(Params, len(d.Params))
	for _, spec := range d.Params {
		out[spec.Name] = spec.Default
	}
	for name, v := range p {
		spec, ok := d.param(name)
		if !ok {
			return nil, fmt.Errorf("algorithm %q: unknown parameter %q", d.Name, name)
		}
		cv, err := coerce(spec, v)
		if err != nil {
			return nil, fmt.Errorf("algorithm %q: %v", d.Name, err)
		}
		out[name] = cv
	}
	return out, nil
}

func coerce(spec Param, v any) (any, error) {
	switch spec.Type {
	case TypeInt:
		if i, ok := v.(int); ok {
			return i, nil
		}
	case TypeFloat:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int:
			return float64(x), nil
		}
	case TypeBool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
	}
	return nil, fmt.Errorf("parameter %q: want %s, got %T", spec.Name, spec.Type, v)
}

// ParseValue parses a string form of the named parameter per its declared
// type — the entry point for HTTP query strings and CLI flags.
func (d *Descriptor) ParseValue(name, raw string) (any, error) {
	spec, ok := d.param(name)
	if !ok {
		return nil, fmt.Errorf("algorithm %q: unknown parameter %q", d.Name, name)
	}
	switch spec.Type {
	case TypeInt:
		v, err := strconv.Atoi(raw)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %q is not an int", name, raw)
		}
		return v, nil
	case TypeFloat:
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %q is not a float", name, raw)
		}
		return v, nil
	case TypeBool:
		v, err := strconv.ParseBool(raw)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %q is not a bool", name, raw)
		}
		return v, nil
	}
	return nil, fmt.Errorf("parameter %q: unsupported type %q", name, spec.Type)
}

// WithMemoDefault returns p with memoization enabled when the algorithm
// supports it and the caller did not choose explicitly — the right default
// for batch consumers (estimators, full-solution audits) that issue many
// queries against one instance. p is not modified.
func (d *Descriptor) WithMemoDefault(p Params) Params {
	if !d.HasParam("memo") {
		return p
	}
	if _, set := p["memo"]; set {
		return p
	}
	out := make(Params, len(p)+1)
	for k, v := range p {
		out[k] = v
	}
	out["memo"] = true
	return out
}

// BadInstanceError reports a registration bug: a descriptor's New returned
// an instance that does not implement the query interface of its declared
// Kind. Unlike parameter errors, it is never the caller's fault; servers
// should map it to an internal error, not a client error.
type BadInstanceError struct {
	Algo string
	Kind Kind
	// Instance is the offending instance's dynamic type.
	Instance string
}

// Error implements the error interface.
func (e *BadInstanceError) Error() string {
	return fmt.Sprintf("registry: algorithm %q: instance %s does not answer %s queries (registration bug)",
		e.Algo, e.Instance, e.Kind)
}

// Build resolves params, constructs an instance and checks that it
// satisfies the query interface of the descriptor's Kind.
func (d *Descriptor) Build(o oracle.Oracle, seed rnd.Seed, p Params) (any, error) {
	rp, err := d.Resolve(p)
	if err != nil {
		return nil, err
	}
	inst, err := d.New(o, seed, rp)
	if err != nil {
		return nil, fmt.Errorf("algorithm %q: %v", d.Name, err)
	}
	if _, ok := d.Kind.Bind(inst); !ok {
		return nil, &BadInstanceError{Algo: d.Name, Kind: d.Kind, Instance: fmt.Sprintf("%T", inst)}
	}
	return inst, nil
}

var (
	mu      sync.RWMutex
	byName  = map[string]*Descriptor{}
	byAlias = map[string]string{}
)

// Register adds a descriptor to the catalog. It panics on duplicate names
// or malformed descriptors: registration happens at init time and a broken
// entry is a programming error, not a runtime condition.
func Register(d Descriptor) {
	if d.Name == "" || !d.Kind.valid() || d.New == nil {
		panic(fmt.Sprintf("registry: malformed descriptor %+v", d))
	}
	for _, spec := range d.Params {
		if _, err := coerce(spec, spec.Default); err != nil {
			panic(fmt.Sprintf("registry: %s: default of %v", d.Name, err))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := byName[d.Name]; dup {
		panic("registry: duplicate algorithm " + d.Name)
	}
	if _, dup := byAlias[d.Name]; dup {
		panic("registry: name collides with alias " + d.Name)
	}
	for _, a := range d.Aliases {
		if _, dup := byAlias[a]; dup {
			panic("registry: duplicate alias " + a)
		}
		if _, dup := byName[a]; dup {
			panic("registry: alias collides with name " + a)
		}
	}
	dd := d
	byName[d.Name] = &dd
	for _, a := range d.Aliases {
		byAlias[a] = d.Name
	}
}

// Get returns the descriptor registered under name or one of its aliases.
func Get(name string) (*Descriptor, error) {
	mu.RLock()
	defer mu.RUnlock()
	if d, ok := byName[name]; ok {
		return d, nil
	}
	if canon, ok := byAlias[name]; ok {
		return byName[canon], nil
	}
	return nil, fmt.Errorf("registry: unknown algorithm %q (known: %v)", name, namesLocked())
}

// Names returns the canonical algorithm names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(byName))
	for n := range byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns every registered descriptor, sorted by name.
func All() []*Descriptor {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]*Descriptor, 0, len(byName))
	for _, d := range byName {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Build constructs the named algorithm of any kind.
func Build(name string, o oracle.Oracle, seed rnd.Seed, p Params) (any, error) {
	d, err := Get(name)
	if err != nil {
		return nil, err
	}
	return d.Build(o, seed, p)
}
