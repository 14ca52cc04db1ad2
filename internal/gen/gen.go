// Package gen produces the synthetic graph workloads on which the library's
// experiments run. The LCA papers are pure theory with no testbed; these
// generators substitute for it, covering the regimes the analyses
// distinguish: sparse bounded-degree graphs, dense graphs with Delta =
// Omega(n^c), heavy-tailed degree distributions, and structured topologies
// with known distances.
package gen

import (
	"fmt"
	"math"
	"sort"

	"lca/internal/graph"
	"lca/internal/rnd"
)

// Gnp samples an Erdos-Renyi G(n, p) graph. Edges are enumerated with
// geometric skip sampling, so the cost is proportional to the number of
// edges rather than n^2.
func Gnp(n int, p float64, seed rnd.Seed) *graph.Graph {
	b := graph.NewBuilder(n)
	prg := rnd.NewPRG(seed)
	switch {
	case p <= 0 || n < 2:
		return b.Build()
	case p >= 1:
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(u, v)
			}
		}
		return b.Build()
	}
	// Walk the strictly-upper-triangular pair space in row-major order,
	// skipping a Geometric(p) number of pairs between successive edges and
	// carrying the position across row boundaries.
	logq := math.Log1p(-p)
	u, col := 0, int64(-1) // current row and column offset; v = u+1+col
	for u < n-1 {
		r := prg.Float64()
		skip := int64(math.Floor(math.Log(1-r) / logq))
		col += 1 + skip
		for u < n-1 && col >= int64(n-1-u) {
			col -= int64(n - 1 - u)
			u++
		}
		if u >= n-1 {
			break
		}
		b.AddEdge(u, u+1+int(col))
	}
	return b.BuildShuffled(rnd.NewPRG(seed.Derive(0xad1)))
}

// Path returns the path graph 0-1-...-(n-1).
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// Cycle returns the n-cycle (n >= 3 for a proper cycle; smaller n degrade
// to a path).
func Cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	if n >= 3 {
		b.AddEdge(n-1, 0)
	}
	return b.Build()
}

// Complete returns the clique K_n.
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

// CompleteBipartite returns K_{a,b}: vertices 0..a-1 on the left,
// a..a+b-1 on the right.
func CompleteBipartite(a, b int) *graph.Graph {
	bl := graph.NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bl.AddEdge(i, a+j)
		}
	}
	return bl.Build()
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.Build()
}

// Grid returns the rows x cols grid graph; vertex (r,c) has index r*cols+c.
func Grid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				b.AddEdge(v, v+1)
			}
			if r+1 < rows {
				b.AddEdge(v, v+cols)
			}
		}
	}
	return b.Build()
}

// Torus returns the rows x cols torus (grid with wraparound), a natural
// bounded-degree, high-girth workload.
func Torus(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			b.AddEdge(v, r*cols+(c+1)%cols)
			b.AddEdge(v, ((r+1)%rows)*cols+c)
		}
	}
	return b.Build()
}

// RandomRegular samples a d-regular simple graph on n vertices via the
// configuration model with rejection/repair: random perfect matchings on
// the n*d cell table are drawn, defective pairs (self-loops, duplicate
// edges) are re-matched, and the process restarts if repair stalls. n*d
// must be even and d < n.
func RandomRegular(n, d int, seed rnd.Seed) (*graph.Graph, error) {
	if d < 0 || d >= n {
		return nil, fmt.Errorf("gen: invalid degree %d for n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("gen: n*d = %d*%d is odd", n, d)
	}
	if d == 0 {
		return graph.NewBuilder(n).Build(), nil
	}
	prg := rnd.NewPRG(seed)
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if g, ok := tryRegular(n, d, prg); ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("gen: failed to sample %d-regular graph on %d vertices after %d attempts", d, n, maxAttempts)
}

// tryRegular attempts one configuration-model draw with local repair. It
// checks the pairing against its own set of edges and hands the Builder
// only the final, defect-free pairing.
func tryRegular(n, d int, prg *rnd.PRG) (*graph.Graph, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	prg.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	seen := make(graph.EdgeSet, n*d/2)
	// pair pairs the stubs at i and i+1 unless that pair is a self-loop
	// or an edge already paired; it reports whether it did.
	pair := func(i int) bool {
		u, v := stubs[i], stubs[i+1]
		if u == v || seen.Has(u, v) {
			return false
		}
		seen.Add(u, v)
		return true
	}
	// Pair consecutive stubs; collect defective pairs for repair.
	var bad []int // indices of stub pairs (even index) that failed
	for i := 0; i < len(stubs); i += 2 {
		if !pair(i) {
			bad = append(bad, i)
		}
	}
	// Repair pass: re-pair defective stubs against random positions by
	// edge swaps. A bounded number of sweeps keeps the run finite.
	for sweep := 0; sweep < 100 && len(bad) > 0; sweep++ {
		for _, i := range bad {
			if pair(i) {
				continue
			}
			// Swap stub i+1 with a random stub position j.
			j := prg.Intn(len(stubs))
			stubs[i+1], stubs[j] = stubs[j], stubs[i+1]
		}
		// Re-pair from scratch using the updated stub pairing. This is
		// O(m) per sweep but sweeps are rare and instances moderate.
		clear(seen)
		bad = bad[:0]
		for i := 0; i < len(stubs); i += 2 {
			if !pair(i) {
				bad = append(bad, i)
			}
		}
	}
	if len(bad) > 0 {
		return nil, false
	}
	b := graph.NewBuilder(n)
	for i := 0; i < len(stubs); i += 2 {
		b.AddEdge(stubs[i], stubs[i+1])
	}
	return b.BuildShuffled(prg), true
}

// ChungLu samples a power-law graph with expected degree sequence
// w_i proportional to (i+1)^{-1/(beta-1)}, scaled to the requested average
// degree. Sampling uses the Miller-Hagberg algorithm: O(n + m) expected
// time over sorted weights.
func ChungLu(n int, beta, avgDeg float64, seed rnd.Seed) *graph.Graph {
	b := graph.NewBuilder(n)
	if n < 2 || avgDeg <= 0 {
		return b.Build()
	}
	if beta <= 2 {
		beta = 2.1
	}
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -1/(beta-1))
		sum += w[i]
	}
	scale := avgDeg * float64(n) / sum
	for i := range w {
		w[i] *= scale
		// Cap weights so p_uv = w_u w_v / S stays below 1.
	}
	s := 0.0
	for _, x := range w {
		s += x
	}
	maxW := math.Sqrt(s)
	for i := range w {
		if w[i] > maxW {
			w[i] = maxW
		}
	}
	prg := rnd.NewPRG(seed)
	// Weights are already sorted in decreasing order by construction.
	for u := 0; u < n-1; u++ {
		v := u + 1
		p := math.Min(w[u]*w[v]/s, 1)
		for v < n && p > 0 {
			if p < 1 {
				r := prg.Float64()
				skip := int(math.Floor(math.Log(1-r) / math.Log1p(-p)))
				v += skip
			}
			if v >= n {
				break
			}
			q := math.Min(w[u]*w[v]/s, 1)
			if prg.Float64() < q/p {
				b.AddEdge(u, v)
			}
			p = q
			v++
		}
	}
	return b.BuildShuffled(rnd.NewPRG(seed.Derive(0xc1)))
}

// PlantedClusters returns a stochastic block model graph with k equal
// communities: intra-community edge probability pIn, inter pOut.
func PlantedClusters(n, k int, pIn, pOut float64, seed rnd.Seed) *graph.Graph {
	b := graph.NewBuilder(n)
	if k < 1 {
		k = 1
	}
	prg := rnd.NewPRG(seed)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pOut
			if u%k == v%k {
				p = pIn
			}
			if prg.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.BuildShuffled(rnd.NewPRG(seed.Derive(0x5b)))
}

// DenseCore builds a composite stressing the degree-class decompositions:
// a clique core of size coreSize, a sparse G(n,p) periphery, and random
// core-periphery edges so every degree class in the 3/5-spanner analysis is
// populated.
func DenseCore(n, coreSize int, peripheryDeg float64, seed rnd.Seed) *graph.Graph {
	if coreSize > n {
		coreSize = n
	}
	prg := rnd.NewPRG(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < coreSize; i++ {
		for j := i + 1; j < coreSize; j++ {
			b.AddEdge(i, j)
		}
	}
	if n > coreSize {
		p := peripheryDeg / float64(n-coreSize)
		for u := coreSize; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if prg.Float64() < p {
					b.AddEdge(u, v)
				}
			}
			// A few random spokes into the core.
			if coreSize > 0 {
				for s := 0; s < 2; s++ {
					if prg.Float64() < 0.5 {
						b.AddEdge(u, prg.Intn(coreSize))
					}
				}
			}
		}
	}
	return b.BuildShuffled(rnd.NewPRG(seed.Derive(0xdc)))
}

// CirculantOffsets derives the offset set of a hash-based d-regular
// circulant graph from a seed: d/2 distinct offsets sampled uniformly from
// [1, (n-1)/2], sorted. The construction needs d even (every offset
// contributes two neighbors) and d/2 <= (n-1)/2 so enough distinct offsets
// exist. The same derivation backs the implicit "circulant" source family,
// so a materialized Circulant graph and the probe-native backend agree
// edge-for-edge.
func CirculantOffsets(n, d int, seed rnd.Seed) ([]int, error) {
	if d < 0 || d%2 != 0 {
		return nil, fmt.Errorf("gen: circulant degree %d must be even and non-negative", d)
	}
	if d == 0 {
		return nil, nil
	}
	k := d / 2
	limit := (n - 1) / 2
	if k > limit {
		return nil, fmt.Errorf("gen: circulant degree %d needs %d distinct offsets but n=%d allows only %d", d, k, n, limit)
	}
	prg := rnd.NewPRG(seed.Derive(0xc19c))
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		o := 1 + prg.Intn(limit)
		if seen[o] {
			continue
		}
		seen[o] = true
		out = append(out, o)
	}
	sort.Ints(out)
	return out, nil
}

// Circulant materializes the circulant graph on n vertices with the given
// offsets: v is adjacent to (v±o) mod n for every offset o. Offsets must be
// distinct and in [1, (n-1)/2], which makes the graph exactly
// 2*len(offsets)-regular with n*len(offsets) edges.
func Circulant(n int, offsets []int) (*graph.Graph, error) {
	seen := make(map[int]bool, len(offsets))
	for _, o := range offsets {
		if o < 1 || o > (n-1)/2 {
			return nil, fmt.Errorf("gen: circulant offset %d out of range [1,%d]", o, (n-1)/2)
		}
		if seen[o] {
			return nil, fmt.Errorf("gen: duplicate circulant offset %d", o)
		}
		seen[o] = true
	}
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for _, o := range offsets {
			b.AddEdge(v, (v+o)%n)
		}
	}
	return b.Build(), nil
}

// BlockRandomProb returns the per-pair edge probability that gives the
// block-random family mean degree ~avgDeg within blocks of the given size.
func BlockRandomProb(block int, avgDeg float64) float64 {
	if block < 2 {
		return 0
	}
	p := avgDeg / float64(block-1)
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}

// BlockRandomEdge reports whether {x, y} — two distinct vertices of the
// same block — is an edge of the block-random graph under the master seed.
// The decision derives a per-block sub-seed HMAC-style (seed keyed by the
// block index) and hashes it with the pair, so any vertex's neighborhood is
// recomputable from the short seed alone with no shared state — the
// property the implicit "blockrandom" source backend relies on.
func BlockRandomEdge(seed rnd.Seed, block, x, y int, p float64) bool {
	if x == y || p <= 0 {
		return false
	}
	lo, hi := x, y
	if lo > hi {
		lo, hi = hi, lo
	}
	bseed := seed.Derive(0xb10c_0000_0000_0000 | uint64(block))
	h := uint64(bseed.Derive(rnd.Pair(uint64(lo), uint64(hi))))
	return float64(h>>11)/(1<<53) < p
}

// BlockRandom materializes the block-random graph: vertices are split into
// consecutive blocks of the given size, and each block independently holds
// a G(b, p)-style random subgraph with p = avgDeg/(block-1), every decision
// derived from a per-block sub-seed. It is the materialized counterpart of
// the implicit "blockrandom" source family — a G(n, d/n)-flavored degree
// distribution whose adjacency is synthesizable locally.
func BlockRandom(n, block int, avgDeg float64, seed rnd.Seed) *graph.Graph {
	if block < 2 {
		block = 2
	}
	p := BlockRandomProb(block, avgDeg)
	b := graph.NewBuilder(n)
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		blk := lo / block
		for x := lo; x < hi; x++ {
			for y := x + 1; y < hi; y++ {
				if BlockRandomEdge(seed, blk, x, y, p) {
					b.AddEdge(x, y)
				}
			}
		}
	}
	return b.Build()
}

// Barbell returns two cliques of size k joined by a path of length
// pathLen. Total vertices: 2k + pathLen - 1 interior path vertices.
func Barbell(k, pathLen int) *graph.Graph {
	n := 2*k + max(pathLen-1, 0)
	b := graph.NewBuilder(n)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(i, j)
			b.AddEdge(k+i, k+j)
		}
	}
	// Path from vertex 0 (left clique) to vertex k (right clique).
	prev := 0
	for i := 0; i < pathLen-1; i++ {
		node := 2*k + i
		b.AddEdge(prev, node)
		prev = node
	}
	if pathLen > 0 {
		b.AddEdge(prev, k)
	}
	return b.Build()
}
