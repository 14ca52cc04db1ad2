package core

// Parallel assembly. The defining property of LCAs — queries share no
// state beyond the immutable (graph, seed) pair — makes them trivially
// parallel: give every worker its own LCA instance and partition the
// queries. This is also how a real deployment would serve queries (one
// instance per serving goroutine or per machine), so the harness doubles
// as a demonstration that instances never need to coordinate.

import (
	"runtime"
	"sync"

	"lca/internal/graph"
)

// BuildSubgraphParallel assembles the LCA's subgraph using one independent
// LCA instance per worker. factory must return a fresh instance answering
// for the same (graph, seed); workers <= 0 selects GOMAXPROCS. The result
// is identical to BuildSubgraph on any of the instances. Per-query probe
// stats are aggregated across workers (max is a true max, the mean is
// exact).
func BuildSubgraphParallel(g *graph.Graph, factory func() EdgeLCA, workers int) (*graph.Graph, QueryStats) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	edges := g.Edges()
	if workers > len(edges) {
		workers = len(edges)
	}
	if workers <= 1 {
		return BuildSubgraph(g, factory())
	}
	type result struct {
		kept  []graph.Edge
		stats QueryStats
	}
	results := make([]result, workers)
	var wg sync.WaitGroup
	chunk := (len(edges) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(edges) {
			hi = len(edges)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			lca := factory()
			reporter, _ := lca.(ProbeReporter)
			res := result{}
			for _, e := range edges[lo:hi] {
				var before, after QueryStats
				if reporter != nil {
					before.ByKind = reporter.ProbeStats()
				}
				if lca.QueryEdge(e.U, e.V) {
					res.kept = append(res.kept, e)
				}
				if reporter != nil {
					after.ByKind = reporter.ProbeStats()
					res.stats.Observe(after.ByKind.Sub(before.ByKind))
				} else {
					res.stats.Queries++
				}
			}
			results[w] = res
		}(w, lo, hi)
	}
	wg.Wait()
	b := graph.NewBuilder(g.N())
	var agg QueryStats
	for _, res := range results {
		for _, e := range res.kept {
			b.AddEdge(e.U, e.V)
		}
		agg.Merge(res.stats)
	}
	return b.Build(), agg
}

// BuildLabelsParallel is the labeling analogue of BuildSubgraphParallel:
// factory returns one instance per worker, each over its own oracle
// chain, and the labeling is bit-identical to serial assembly. Chains
// may share state safely — the Session's share its row tier's L2 under
// WithRowCache — because cached rows are pure functions of the graph.
func BuildLabelsParallel(g *graph.Graph, factory func() LabelLCA, workers int) ([]int, QueryStats) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.N()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return BuildLabels(g, factory())
	}
	labels := make([]int, n)
	statsPer := make([]QueryStats, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			lca := factory()
			reporter, _ := lca.(ProbeReporter)
			for v := lo; v < hi; v++ {
				if reporter != nil {
					before := reporter.ProbeStats()
					labels[v] = lca.QueryLabel(v)
					statsPer[w].Observe(reporter.ProbeStats().Sub(before))
				} else {
					labels[v] = lca.QueryLabel(v)
					statsPer[w].Queries++
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	var agg QueryStats
	for _, s := range statsPer {
		agg.Merge(s)
	}
	return labels, agg
}

// BuildVertexSetParallel is the vertex analogue of BuildSubgraphParallel.
func BuildVertexSetParallel(g *graph.Graph, factory func() VertexLCA, workers int) ([]bool, QueryStats) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.N()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return BuildVertexSet(g, factory())
	}
	in := make([]bool, n)
	statsPer := make([]QueryStats, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			lca := factory()
			reporter, _ := lca.(ProbeReporter)
			for v := lo; v < hi; v++ {
				if reporter != nil {
					before := reporter.ProbeStats()
					in[v] = lca.QueryVertex(v)
					statsPer[w].Observe(reporter.ProbeStats().Sub(before))
				} else {
					in[v] = lca.QueryVertex(v)
					statsPer[w].Queries++
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	var agg QueryStats
	for _, s := range statsPer {
		agg.Merge(s)
	}
	return in, agg
}
