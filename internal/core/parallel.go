package core

// Parallel assembly. The defining property of LCAs — queries share no
// state beyond the immutable (graph, seed) pair — makes them trivially
// parallel: give every worker its own LCA instance and partition the
// queries. This is also how a real deployment would serve queries (one
// instance per serving goroutine or per machine), so the harness doubles
// as a demonstration that instances never need to coordinate.
//
// A worker's panic, such as a probe limiter's budget signal, is
// contained: every worker recovers, the build waits for all of them, then
// re-raises the first recovered value on the caller's goroutine, where
// the serial builders would have raised it.

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
	edges := g.Edges()
	workers = workerCount(workers, len(edges))
	if workers <= 1 {
		return BuildSubgraph(g, factory())
	}
	kept := make([][]graph.Edge, workers)
	statsPer := make([]QueryStats, workers)
	runWorkers(len(edges), workers, func(w, lo, hi int) {
		lca := factory()
		t := newTally(lca)
		for _, e := range edges[lo:hi] {
			if lca.QueryEdge(e.U, e.V) {
				kept[w] = append(kept[w], e)
			}
			t.observe()
		}
		statsPer[w] = t.result()
	})
	b := graph.NewBuilder(g.N())
	for _, es := range kept {
		for _, e := range es {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Build(), merged(statsPer)
}

// BuildLabelsParallel is the labeling analogue of BuildSubgraphParallel:
// factory returns one instance per worker, each over its own oracle
// chain, and the labeling is bit-identical to serial assembly. Chains
// may share state safely — the Session's share its row tier's L2 under
// WithRowCache — because cached rows are pure functions of the graph.
func BuildLabelsParallel(g *graph.Graph, factory func() LabelLCA, workers int) ([]int, QueryStats) {
	n := g.N()
	workers = workerCount(workers, n)
	if workers <= 1 {
		return BuildLabels(g, factory())
	}
	labels := make([]int, n)
	statsPer := make([]QueryStats, workers)
	runWorkers(n, workers, func(w, lo, hi int) {
		lca := factory()
		t := newTally(lca)
		for v := lo; v < hi; v++ {
			labels[v] = lca.QueryLabel(v)
			t.observe()
		}
		statsPer[w] = t.result()
	})
	return labels, merged(statsPer)
}

// BuildVertexSetParallel is the vertex analogue of BuildSubgraphParallel.
func BuildVertexSetParallel(g *graph.Graph, factory func() VertexLCA, workers int) ([]bool, QueryStats) {
	n := g.N()
	workers = workerCount(workers, n)
	if workers <= 1 {
		return BuildVertexSet(g, factory())
	}
	in := make([]bool, n)
	statsPer := make([]QueryStats, workers)
	runWorkers(n, workers, func(w, lo, hi int) {
		lca := factory()
		t := newTally(lca)
		for v := lo; v < hi; v++ {
			in[v] = lca.QueryVertex(v)
			t.observe()
		}
		statsPer[w] = t.result()
	})
	return in, merged(statsPer)
}

// workerCount resolves a requested worker count for a build of total
// queries: GOMAXPROCS when workers <= 0, and never more than total.
func workerCount(workers, total int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, total)
}

// runWorkers splits [0, total) into one contiguous chunk per worker and
// runs work(w, lo, hi) on each non-empty chunk in its own goroutine. It
// returns once every worker has returned; if any panicked, it then
// re-panics with the first value recovered.
func runWorkers(total, workers int, work func(w, lo, hi int)) {
	var (
		wg       sync.WaitGroup
		once     sync.Once
		panicked bool
		first    any
	)
	chunk := (total + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, total)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { panicked, first = true, r })
				}
			}()
			work(w, lo, hi)
		}()
	}
	wg.Wait()
	if panicked {
		panic(first)
	}
}

// merged folds per-worker stats into one aggregate.
func merged(statsPer []QueryStats) QueryStats {
	var agg QueryStats
	for _, s := range statsPer {
		agg.Merge(s)
	}
	return agg
}
