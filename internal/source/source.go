// Package source makes the LCA probe substrate pluggable: a Source is
// anything that can answer the model's adjacency-list probes — N, Degree,
// Neighbor and Adjacency — about one fixed graph, without any requirement
// that the graph is resident in memory.
//
// The point of the LCA model is answering queries about inputs too large
// to read; this package supplies the input side of that promise with four
// backend families:
//
//   - Implicit deterministic generators (Ring, Grid, Torus, Circulant,
//     BlockRandom): adjacency synthesized on the fly from the topology
//     parameters and a short seed, with no per-vertex state at all. A
//     billion-vertex ring costs the same 24 bytes as a ten-vertex one.
//   - The in-memory adapter: *graph.Graph satisfies Source directly
//     (FromGraph documents the conformance), so every existing workload
//     keeps working unchanged.
//   - The disk-backed CSR reader (OpenCSR): a graph saved once with
//     graph.WriteCSR / WriteCSR is probed cold via positioned reads, with
//     O(1) resident state per open file.
//   - Network shards (OpenRemote, NewSharded): probes answered by other
//     processes over the probe wire protocol (wire.go), with connection
//     reuse, timeouts and retry-with-backoff; Sharded consistent-hashes
//     vertices across replica shards, with failover.
//
// Sources are addressed by spec strings ("ring:n=1000000000",
// "csr:web.csr", "remote:http://host:8080", "sharded:remote:a,remote:b",
// a bare edge-list path) parsed by Parse; the Session API, the HTTP
// server and the CLIs all accept specs, so any backend is reachable from
// every surface.
//
// Every Source must be safe for concurrent use: probe handlers and
// parallel assembly workers share one instance. All backends here are
// stateless per probe (or, for files, use positioned reads), which also
// keeps per-probe allocation at zero on the implicit families. The
// executable contract — including the -1 conventions, adjacency symmetry,
// determinism, Close idempotence and concurrency safety — is the
// TestConformance suite (conformance.go), which every backend family
// passes, network ones included.
package source

import (
	"fmt"

	"lca/internal/graph"
	"lca/internal/rnd"
)

// MaxVertices is the largest vertex count a source may expose: vertex IDs
// must fit the 32-bit halves of the packed uint64 keys used by edge keys,
// probe caches and algorithm memo tables throughout the library. Parse
// enforces it; programmatic constructors trust the caller.
const MaxVertices = 1 << 32

// Source answers the adjacency-list probes of the LCA model about one
// fixed graph on vertices 0..N()-1, with N() at most MaxVertices.
// Implementations must be deterministic — equal probes always return
// equal answers — and safe for concurrent use.
type Source interface {
	// N returns the number of vertices. Free in the model.
	N() int
	// Degree returns deg(v).
	Degree(v int) int
	// Neighbor returns the i-th (0-indexed) neighbor of v, or -1 if i is
	// out of range.
	Neighbor(v, i int) int
	// Adjacency returns the index of v in the neighbor list of u, or -1
	// if (u,v) is not an edge.
	Adjacency(u, v int) int
}

// RandomEdger is the optional "random edge" capability used by the
// sublinear estimators: a uniformly random edge of the source in canonical
// (u < v) orientation. Sources with no edges may panic, mirroring
// graph.Graph.RandomEdge.
type RandomEdger interface {
	RandomEdge(prg *rnd.PRG) (u, v int)
}

// EdgeCounter is the optional capability of knowing the edge count in O(1)
// — materialized graphs and closed-form implicit families have it, random
// families generally do not.
type EdgeCounter interface {
	M() int
}

// DegreeBounder is the optional capability of knowing the maximum degree
// in O(1).
type DegreeBounder interface {
	MaxDegree() int
}

// RowFetcher is the optional capability of answering whole adjacency rows
// at once: FetchRows returns, index-aligned with vs, each vertex's full
// neighbor list (degree = len(row)). It is the transport behind the
// rowfull wire op, the only batched request on the wire: one answer
// replaces a Degree probe plus deg Neighbor probes. Every network
// backend has it (Remote, since every shard serves rowfull, and Sharded,
// which reads a local replica's rows cell by cell); local backends do
// not need it. Returned rows must equal what Degree/Neighbor probes
// would assemble; callers own the returned slices. The capability is
// transport-level: probe accounting for the cells read is the caller's
// job.
type RowFetcher interface {
	FetchRows(vs []int) ([][]int, error)
}

// Closer is implemented by sources holding external resources (the CSR
// backend). Callers that opened a source via Parse should Close it when
// done; Close on other backends is absent and a no-op by omission.
type Closer interface {
	Close() error
}

// LocalityReporter is the optional capability of reporting probe locality
// on page-granular backends (the mmap CSR reader): PageTouches counts
// loads that landed on a different 4KiB page than the load before them
// (page-cache or fault work), LocalHits counts loads that stayed on the
// same page (near-free). Both are monotone and safe for concurrent use.
// Like round trips, the split is transport accounting, deliberately
// separate from the model's per-cell probe counts — it shows whether a
// workload's probes exhibit the locality the cache hierarchy is sized
// for.
type LocalityReporter interface {
	PageTouches() uint64
	LocalHits() uint64
}

// RoundTripCounter is the optional capability of reporting how many
// network round trips a source has issued so far (monotone, safe for
// concurrent use). Remote counts its HTTP requests; Sharded sums its
// shards'. Purely local backends lack the capability — their probes cost
// no round trips — so harnesses read it through a type assertion and
// report 0 otherwise. The count is transport accounting, deliberately
// separate from the model's per-cell probe counts.
type RoundTripCounter interface {
	RoundTrips() uint64
}

// FromGraph returns the in-memory source backed by g. *graph.Graph
// implements Source (and RandomEdger, EdgeCounter, DegreeBounder)
// directly, so this is the identity — it exists to document the adapter
// and to keep call sites explicit about the boundary.
func FromGraph(g *graph.Graph) Source { return g }

// Compile-time conformance of the in-memory adapter.
var (
	_ Source        = (*graph.Graph)(nil)
	_ RandomEdger   = (*graph.Graph)(nil)
	_ EdgeCounter   = (*graph.Graph)(nil)
	_ DegreeBounder = (*graph.Graph)(nil)
)

// Materialize probes every adjacency cell of src into an in-memory Graph,
// refusing when src has more than maxN vertices (materialization is O(n+m)
// — exactly what sources exist to avoid; the cap keeps a CLI typo from
// trying to build a billion-vertex adjacency). The result's adjacency
// lists are in the Builder's canonical sorted order, which matches every
// implicit family here but may reorder a shuffled CSR file.
func Materialize(src Source, maxN int) (*graph.Graph, error) {
	if g, ok := src.(*graph.Graph); ok {
		return g, nil
	}
	n := src.N()
	if n > maxN {
		return nil, fmt.Errorf("source: materializing n=%d vertices exceeds the cap %d", n, maxN)
	}
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		d := src.Degree(v)
		for i := 0; i < d; i++ {
			w := src.Neighbor(v, i)
			if w < 0 || w >= n {
				return nil, fmt.Errorf("source: neighbor %d of vertex %d out of range [0,%d)", w, v, n)
			}
			if w != v {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Build(), nil
}

// stubRandomEdge samples a uniform edge by rejection over directed stubs:
// a uniform (vertex, slot < maxDeg) pair conditioned on the slot being a
// real neighbor is a uniform stub, and each undirected edge owns exactly
// two stubs. maxDeg must bound every degree; the caller guarantees the
// source has at least one edge.
func stubRandomEdge(src Source, maxDeg int, prg *rnd.PRG) (int, int) {
	n := src.N()
	for {
		v := prg.Intn(n)
		i := prg.Intn(maxDeg)
		if i >= src.Degree(v) {
			continue
		}
		w := src.Neighbor(v, i)
		if w < 0 {
			continue
		}
		if v > w {
			v, w = w, v
		}
		return v, w
	}
}
