// Package spanner implements the local computation algorithms for graph
// spanners following Parter, Rubinfeld, Vakilian and Yodpinyanee ("Local
// Computation Algorithms for Spanners", 2019):
//
//   - Spanner3: stretch-3 spanners with ~O(n^{3/2}) edges and ~O(n^{3/4})
//     probes per query (paper §2, Theorem 1.1 with r=2).
//   - Spanner5: stretch-5 spanners with ~O(n^{4/3}) edges and ~O(n^{5/6})
//     probes per query (paper §3, Theorem 1.1 with r=3, Theorem 3.5).
//   - SpannerK: stretch-O(k^2) spanners with ~O(n^{1+1/k}) edges and
//     probe complexity polynomial in the maximum degree and n^{2/3}
//     (paper §4, Theorem 1.2), doubling as a sparse-spanning-graph LCA.
//
// Every construction answers edge queries consistently with one fixed
// spanner determined entirely by the random seed: all sampling decisions
// (center sets, marks, ranks, representatives) are evaluated through
// bounded-independence hash families keyed by vertex IDs, matching the
// poly-logarithmic seed lengths of the paper's §5.
package spanner

import (
	"math"

	"lca/internal/oracle"
	"lca/internal/rnd"
)

// Config tunes the constants that the asymptotic analysis hides. The zero
// value selects defaults suitable for experiments.
type Config struct {
	// HitConst is the c in sampling probabilities p = c*ln(n)/Delta used by
	// hitting-set arguments. Larger values make the w.h.p. guarantees hold
	// at smaller n at the cost of proportionally more spanner edges.
	// Default 2.5.
	HitConst float64
	// Independence is the hash-family independence; 0 selects
	// 2*ceil(log2 n) + 4, the Theta(log n)-wise independence the analysis
	// requires.
	Independence int
	// Memo enables cross-query memoization of deterministic intermediate
	// results (center sets, cluster structures, BFS explorations). Answers
	// are unchanged — every memoized value is a pure function of the graph
	// and seed — but probe counters only see each computation once, so
	// per-query probe statistics must be collected with Memo disabled.
	Memo bool
}

func (c Config) withDefaults(n int) Config {
	if c.HitConst <= 0 {
		c.HitConst = 2.5
	}
	if c.Independence <= 0 {
		c.Independence = 2*ceilLog2(n) + 4
	}
	return c
}

// ceilLog2 returns ceil(log2(n)) for n >= 1, and 0 otherwise.
func ceilLog2(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// ceilPow returns ceil(n^exp), at least 1.
func ceilPow(n int, exp float64) int {
	if n <= 1 {
		return 1
	}
	v := int(math.Ceil(math.Pow(float64(n), exp)))
	if v < 1 {
		v = 1
	}
	return v
}

// hitProb returns min(1, c*ln(n+2)/delta), the center-sampling probability
// that makes a degree-delta prefix contain Theta(log n) centers w.h.p.
func hitProb(c float64, n, delta int) float64 {
	if delta < 1 {
		delta = 1
	}
	p := c * math.Log(float64(n)+2) / float64(delta)
	if p > 1 {
		return 1
	}
	return p
}

// blockBounds returns the half-open index range [lo, hi) of the block of
// nominal size b containing position pos in a neighbor list of length deg.
// All blocks have size exactly b except the last, which absorbs the
// remainder (size in [b, 2b)); lists shorter than b form a single block.
// This is the neighborhood-partitioning scheme of paper §1.4.
func blockBounds(deg, b, pos int) (lo, hi int) {
	if b < 1 {
		b = 1
	}
	numBlocks := deg / b
	if numBlocks < 1 {
		return 0, deg
	}
	idx := pos / b
	if idx >= numBlocks {
		idx = numBlocks - 1
	}
	lo = idx * b
	hi = lo + b
	if idx == numBlocks-1 {
		hi = deg
	}
	return lo, hi
}

// scanPart is the "keep the first edge into each new cluster" construction
// shared by H_high and H_super of the 3-spanner (and reused for the
// super-degree edges of the 5-spanner). It is parameterized by:
//
//   - centerPrefix: S(v) is the set of sampled centers among the first
//     min(deg(v), centerPrefix) neighbors of v (the multiple-centers idea,
//     paper Idea (I));
//   - window: 0 scans the scanner's full list prefix before the queried
//     neighbor (H_high); a positive value scans only within the block of
//     that size containing the queried neighbor (H_super, Idea (II));
//   - scannerMaxDeg: vertices with larger degree do not scan (H_high
//     restricts scanning to degrees <= n^{3/4}); 0 disables the limit.
//
// The subgraph it defines is the union over all vertices w of the edges
// (w, x) such that x's center set contains a center not present in the
// center sets of the neighbors preceding x in w's scan range, plus the
// membership edges (v, s) for every s in S(v).
type scanPart struct {
	o             oracle.Oracle
	fam           *rnd.Family
	p             float64
	centerPrefix  int
	window        int
	scannerMaxDeg int

	idx []int // cover's scratch: one row's Adjacency answers
}

// isCenter reports whether v was sampled as a center; no probes.
func (s *scanPart) isCenter(v int) bool {
	return s.fam.Bernoulli(uint64(v), s.p)
}

// centerSet returns the sampled centers among the first
// min(deg(v), centerPrefix) neighbors of v, in list order.
// Probes: 1 Degree + min(deg, centerPrefix) Neighbor. The hint lets a
// prefetching oracle deliver the whole prefix in one round trip; only the
// cells below actually count as probes.
func (s *scanPart) centerSet(v int) []int {
	oracle.Prefetch(s.o, v)
	deg := s.o.Degree(v)
	limit := deg
	if limit > s.centerPrefix {
		limit = s.centerPrefix
	}
	var set []int
	for i := 0; i < limit; i++ {
		w := s.o.Neighbor(v, i)
		if w >= 0 && s.isCenter(w) {
			set = append(set, w)
		}
	}
	return set
}

// inCenterSet reports whether c is in S(w): c must be a center and
// appear within w's center prefix, which one Adjacency probe tells.
func (s *scanPart) inCenterSet(w, c int) bool {
	if !s.isCenter(c) {
		return false
	}
	idx := s.o.Adjacency(w, c)
	return idx >= 0 && idx < s.centerPrefix
}

// memberEdge reports whether (u,v) is a membership edge: one endpoint is a
// center inside the other's center prefix.
func (s *scanPart) memberEdge(u, v int) bool {
	return s.inCenterSet(u, v) || s.inCenterSet(v, u)
}

// cover drops from left, a list of centers (so no center check is
// needed), those within v's center prefix, and returns the rest, in
// order, in left's storage. Probes: len(left) Adjacency on v's row, in
// order, asked in one oracle.AdjacencyEach.
func (s *scanPart) cover(v int, left []int) []int {
	s.idx = grow(s.idx, len(left))
	oracle.AdjacencyEach(s.o, v, left, s.idx, false)
	n := 0
	for k, c := range left {
		if i := s.idx[k]; i < 0 || i >= s.centerPrefix {
			left[n] = c
			n++
		}
	}
	return left[:n]
}

// grow returns buf with length n, reallocating only when it is too
// short.
func grow(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// scanKeep reports whether scanner w keeps the edge (w, x): within w's scan
// range before x, no earlier neighbor's center set covers all of S(x).
// The scanner's row is hinted up front: its degree, the position of x and
// the scan range all read from one prefetched row on batched backends.
// Probes: per earlier neighbor in the range, one Neighbor plus one
// Adjacency per center of S(x) still uncovered, asked of its row together
// (cover).
func (s *scanPart) scanKeep(w, x int) bool {
	oracle.Prefetch(s.o, w)
	if s.scannerMaxDeg > 0 && s.o.Degree(w) > s.scannerMaxDeg {
		return false
	}
	pos := s.o.Adjacency(w, x)
	if pos < 0 {
		return false
	}
	sx := s.centerSet(x)
	if len(sx) == 0 {
		return false
	}
	lo := 0
	if s.window > 0 {
		lo, _ = blockBounds(s.o.Degree(w), s.window, pos)
	}
	left := sx // the centers not covered yet; cover shrinks it in place
	for j := lo; j < pos && len(left) > 0; j++ {
		prev := s.o.Neighbor(w, j)
		if prev < 0 {
			break
		}
		left = s.cover(prev, left)
	}
	return len(left) > 0
}

// keep reports whether either endpoint's rule keeps the edge.
func (s *scanPart) keep(u, v int) bool {
	return s.memberEdge(u, v) || s.scanKeep(u, v) || s.scanKeep(v, u)
}

// edgeLess orders directed candidate edges lexicographically by
// (first endpoint ID, second endpoint ID), the paper's edge-ID order.
func edgeLess(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}
