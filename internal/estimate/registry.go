package estimate

// Registry-generic estimation: the bridge every surface (HTTP estimate
// endpoint, Session.EstimateFraction) shares, so kind dispatch, seed
// derivation and the memoization default live in exactly one place. It
// runs against any probe source — estimating over a billion-vertex
// implicit source costs the same bounded number of point queries as over
// an in-memory graph.

import (
	"fmt"
	"hash/fnv"

	"lca/internal/core"
	"lca/internal/oracle"
	"lca/internal/registry"
	"lca/internal/rnd"
	"lca/internal/source"
)

// Fraction estimates the fraction of elements (edges for an edge-kind
// algorithm, vertices for a vertex-kind one) in the algorithm's solution
// from sampled point queries, with a Hoeffding confidence radius at level
// 1-delta. The instance is built fresh over o, an oracle chain over src
// (oracle.NewChain): whatever the chain enforces — probe and round-trip
// budgets included — covers the whole estimate, every sampled point
// query included. Because the estimator issues many queries against the
// instance, memoization is enabled by default for algorithms that
// support it (pass memo explicitly to override). The sampling seed
// derives from seed and the algorithm name, so repeated calls are
// deterministic.
//
// Edge-kind estimation needs uniform random edges, so src must implement
// the source.RandomEdger capability (in-memory graphs, implicit
// closed-form families, and network sources whose shards have it).
//
// The sample set is hinted to o up front, so over a chain with the row
// tier on batched network backends the estimator's round trips collapse;
// answers are identical either way.
func Fraction(d *registry.Descriptor, src source.Source, o oracle.Oracle, seed rnd.Seed, p registry.Params, samples int, delta float64) (Result, error) {
	if samples < 1 {
		return Result{}, fmt.Errorf("algorithm %q: samples must be >= 1, got %d", d.Name, samples)
	}
	if d.Kind == registry.KindLabel {
		return Result{}, fmt.Errorf("algorithm %q answers label queries; fractions are estimable for edge and vertex kinds", d.Name)
	}
	if src.N() == 0 {
		return Result{}, fmt.Errorf("algorithm %q: source has no vertices to sample", d.Name)
	}
	inst, err := d.Build(o, seed, d.WithMemoDefault(p))
	if err != nil {
		return Result{}, err
	}
	sampleSeed := seed.Derive(hashName(d.Name))
	switch d.Kind {
	case registry.KindEdge:
		sampler, ok := source.RandomEdgerOf(src)
		if !ok {
			return Result{}, fmt.Errorf("algorithm %q: source does not support random edge sampling (no RandomEdge capability)", d.Name)
		}
		if mc, known := source.EdgeCounterOf(src); known && mc.M() == 0 {
			return Result{}, fmt.Errorf("algorithm %q: source has no edges to sample", d.Name)
		}
		return edgeFractionSafe(d.Name, o, sampler, inst.(core.EdgeLCA), samples, delta, sampleSeed)
	default: // registry.KindVertex
		return vertexFractionOver(o, src.N(), inst.(core.VertexLCA), samples, delta, sampleSeed), nil
	}
}

// edgeFractionSafe converts RandomEdge panics — edgeless or effectively
// edgeless sources whose edge count is unknowable in O(1) — into errors,
// so servers answer 4xx envelopes instead of dying mid-request. Those
// panics are string payloads by convention; anything else (a runtime
// error, a network source's typed probe failure) is a genuine defect or
// a different contract and must keep propagating, not read as a client
// fault.
func edgeFractionSafe(name string, o oracle.Oracle, sampler EdgeSampler, lca core.EdgeLCA, samples int, delta float64, seed rnd.Seed) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			msg, ok := r.(string)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("algorithm %q: edge sampling failed: %s", name, msg)
		}
	}()
	return edgeFractionOver(o, sampler, lca, samples, delta, seed), nil
}

func hashName(name string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return h.Sum64()
}
