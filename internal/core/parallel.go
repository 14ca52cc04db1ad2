package core

// Parallel assembly. The defining property of LCAs — queries share no
// state beyond the immutable (graph, seed) pair — makes them trivially
// parallel: give every worker its own LCA instance and partition the
// queries. This is also how a real deployment would serve queries (one
// instance per serving goroutine or per machine), so the harness doubles
// as a demonstration that instances never need to coordinate.
//
// One loop, assemble, runs every build: serial and parallel, of every
// query kind. Subgraph, VertexSet and Labels give it each kind's queries
// and store its answers; the six Build functions and Session's batch
// builds are thin callers of those three.
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
	return Subgraph(g, factory, workers, nil)
}

// BuildLabelsParallel is the labeling analogue of BuildSubgraphParallel:
// factory returns one instance per worker, each over its own oracle
// chain, and the labeling is bit-identical to serial assembly. Chains
// may share state safely — the Session's share its row tier's L2 under
// WithRowCache — because cached rows are pure functions of the graph.
func BuildLabelsParallel(g *graph.Graph, factory func() LabelLCA, workers int) ([]int, QueryStats) {
	return Labels(g, factory, workers, nil)
}

// BuildVertexSetParallel is the vertex analogue of BuildSubgraphParallel.
func BuildVertexSetParallel(g *graph.Graph, factory func() VertexLCA, workers int) ([]bool, QueryStats) {
	return VertexSet(g, factory, workers, nil)
}

// Subgraph queries every edge of g, one LCA from factory per worker, and
// assembles the edges answered true. before, when non-nil, runs ahead of
// every query (a budgeted build restarts its probe window there; it must
// then run on one worker).
func Subgraph(g *graph.Graph, factory func() EdgeLCA, workers int, before func()) (*graph.Graph, QueryStats) {
	edges := g.Edges()
	keep := make([]bool, len(edges))
	qs := assemble(len(edges), workers, factory, before, func(lca EdgeLCA, i int) {
		keep[i] = lca.QueryEdge(edges[i].U, edges[i].V)
	})
	b := graph.NewBuilder(g.N())
	for i, e := range edges {
		if keep[i] {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Build(), qs
}

// VertexSet is Subgraph's vertex analogue: it returns the vertices
// answered true as a boolean slice.
func VertexSet(g *graph.Graph, factory func() VertexLCA, workers int, before func()) ([]bool, QueryStats) {
	in := make([]bool, g.N())
	qs := assemble(len(in), workers, factory, before, func(lca VertexLCA, v int) { in[v] = lca.QueryVertex(v) })
	return in, qs
}

// Labels is Subgraph's labeling analogue: it returns every vertex's
// label.
func Labels(g *graph.Graph, factory func() LabelLCA, workers int, before func()) ([]int, QueryStats) {
	labels := make([]int, g.N())
	qs := assemble(len(labels), workers, factory, before, func(lca LabelLCA, v int) { labels[v] = lca.QueryLabel(v) })
	return labels, qs
}

// assemble is the one assembly loop. It splits queries [0, total) into
// one contiguous chunk per worker, and each worker answers its chunk in
// order with its own LCA from factory, tallying every query's probes.
// answer asks query i and stores its answer; before, when non-nil, runs
// ahead of every query.
func assemble[L any](total, workers int, factory func() L, before func(), answer func(lca L, i int)) QueryStats {
	workers = workerCount(workers, total)
	statsPer := make([]QueryStats, workers)
	runWorkers(total, workers, func(w, lo, hi int) {
		lca := factory()
		t := newTally(lca)
		for i := lo; i < hi; i++ {
			if before != nil {
				before()
			}
			answer(lca, i)
			t.observe()
		}
		statsPer[w] = t.result()
	})
	return merged(statsPer)
}

// workerCount resolves a requested worker count for a build of total
// queries: GOMAXPROCS when workers <= 0, and never more than total, but
// at least one (a build of no queries still takes its one instance).
func workerCount(workers, total int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, total))
}

// runWorkers splits [0, total) into one contiguous chunk per worker and
// runs work(w, lo, hi) on each non-empty chunk: a single worker on the
// caller's goroutine, several each in its own. It returns once every
// worker has returned; if any of several panicked, it then re-panics
// with the first value recovered.
func runWorkers(total, workers int, work func(w, lo, hi int)) {
	if workers == 1 {
		work(0, 0, total)
		return
	}
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
