package spanner

// The 5-spanner LCA of paper §3: ~O(n^{4/3}) edges, ~O(n^{5/6}) probes per
// query. With r=3 the degree thresholds collapse to dLow = dMed = n^{1/3}
// and dSuper = n^{5/6}, and every edge lands in at least one case:
//
//   E_low:   min degree <= n^{1/3}: all kept.
//   E_super: max degree >= n^{5/6}: the generalized H_super construction
//            (scanPart with prefix = window = n^{5/6}) gives stretch 3.
//   E_bckt:  both endpoints deserted in [n^{1/3}, n^{5/6}]: clusters around
//            centers of degree <= n^{5/6} are partitioned into buckets of
//            size n^{1/3} (Idea (III)), and exactly one edge is kept
//            between every adjacent bucket pair.
//   E_rep:   both endpoints in the band, one crowded: crowded vertices
//            reach radius-2 clusters through sampled high-degree
//            representatives (Idea (IV)).
//
// The LCA evaluates every rule on every edge (Observation 2.2: subgraphs
// may contain edges outside "their" class, so all sub-LCAs always run).
// Desertedness itself never needs to be computed at query time — it only
// partitions the analysis.
//
// One pinned-down detail beyond the paper's prose: in the bucket rule the
// center enumeration uses S+(v) = S(v) ∪ {v if v is a center}, so that the
// minimum-ID edge between two buckets is re-derivable when the bucket
// vertex is the cluster's own center (the paper leaves C(s) ∋ s implicit).

import (
	"sort"

	"lca/internal/oracle"
	"lca/internal/rnd"
)

// Spanner5 is an LCA for 5-spanners. Construct with NewSpanner5; the zero
// value is unusable. Not safe for concurrent use; instances are cheap to
// build per goroutine.
type Spanner5 struct {
	counter *oracle.Counter
	n       int
	dLow    int // E_low threshold (n^{1/r}; equals dMed for general graphs)
	dMed    int // n^{1/2-1/(2r)}: bucket size, S center prefix
	dSuper  int // n^{1-1/(2r)}: super threshold, center degree cap, rep threshold

	super      scanPart    // E_super construction (also provides S' centers)
	bcktFam    *rnd.Family // bucket-cluster center sampling
	bcktP      float64
	repFam     *rnd.Family // representative index sampling
	repSamples int

	memo        bool
	degMemo     map[int]int
	clusterMemo map[int][]int
	repsMemo    map[int][]int
	keepMemo    map[[2]int]bool

	// firstBucketEdge's scratch: the screened candidates, one row's
	// targets and their Adjacency answers.
	cand, targets, idx []int
}

// NewSpanner5 returns a 5-spanner LCA over o with default configuration.
func NewSpanner5(o oracle.Oracle, seed rnd.Seed) *Spanner5 {
	return NewSpanner5Config(o, seed, Config{})
}

// NewSpanner5Config returns a 5-spanner LCA with explicit configuration.
func NewSpanner5Config(o oracle.Oracle, seed rnd.Seed, cfg Config) *Spanner5 {
	return newSpanner5R(o, 3, seed, cfg)
}

// NewSpanner5MinDegree returns the Theorem 3.5 LCA for parameter r >= 1:
// on graphs with minimum degree at least n^{1/2-1/(2r)} it answers for a
// 5-spanner with ~O(n^{1+1/r}) edges and ~O(n^{1-1/(2r)}) probes — sparser
// than the general-graph bound n^{4/3} for r > 3, bypassing the girth
// barrier thanks to the degree assumption. With r = 3 it coincides with
// the general 5-spanner. On graphs violating the degree precondition, the
// stretch guarantee lapses for edges with an endpoint degree inside
// (n^{1/r}, n^{1/2-1/(2r)}); all other invariants (consistency, symmetry)
// still hold.
func NewSpanner5MinDegree(o oracle.Oracle, r int, seed rnd.Seed, cfg Config) *Spanner5 {
	if r < 1 {
		r = 1
	}
	return newSpanner5R(o, r, seed, cfg)
}

// MinDegreePrecondition returns the minimum degree under which the stretch
// guarantee holds for this instance's thresholds (dMed; for the default
// r=3 construction the E_low case closes the gap and there is no
// precondition).
func (s *Spanner5) MinDegreePrecondition() int {
	if s.dLow >= s.dMed {
		return 0
	}
	return s.dMed
}

func newSpanner5R(o oracle.Oracle, r int, seed rnd.Seed, cfg Config) *Spanner5 {
	n := o.N()
	cfg = cfg.withDefaults(n)
	counter := oracle.NewCounter(o)
	dLow := ceilPow(n, 1.0/float64(r))
	dMed := ceilPow(n, 0.5-1.0/(2*float64(r)))
	if dMed < dLow {
		// r <= 3: the low threshold dominates and closes the coverage gap.
		dMed = dLow
	}
	dSuper := ceilPow(n, 1-1.0/(2*float64(r)))
	s := &Spanner5{
		counter: counter,
		n:       n,
		dLow:    dLow,
		dMed:    dMed,
		dSuper:  dSuper,
		super: scanPart{
			o:            counter,
			fam:          rnd.NewFamily(seed.Derive(0x51), cfg.Independence),
			p:            hitProb(cfg.HitConst, n, dSuper),
			centerPrefix: dSuper,
			window:       dSuper,
		},
		bcktFam:    rnd.NewFamily(seed.Derive(0x52), cfg.Independence),
		bcktP:      hitProb(cfg.HitConst, n, dMed),
		repFam:     rnd.NewFamily(seed.Derive(0x53), cfg.Independence),
		repSamples: 2 + int(cfg.HitConst*float64(ceilLog2(n)+1)),
		memo:       cfg.Memo,
	}
	if s.memo {
		s.degMemo = make(map[int]int)
		s.clusterMemo = make(map[int][]int)
		s.repsMemo = make(map[int][]int)
		s.keepMemo = make(map[[2]int]bool)
	}
	return s
}

// ProbeStats exposes cumulative probe counts for harness accounting.
func (s *Spanner5) ProbeStats() oracle.Stats { return s.counter.Stats() }

// Stretch returns the stretch guarantee of this LCA's spanner.
func (s *Spanner5) Stretch() int { return 5 }

func (s *Spanner5) degree(v int) int {
	if s.memo {
		if d, ok := s.degMemo[v]; ok {
			return d
		}
		d := s.counter.Degree(v)
		s.degMemo[v] = d
		return d
	}
	return s.counter.Degree(v)
}

// QueryEdge reports whether the input-graph edge (u,v) belongs to the
// 5-spanner.
func (s *Spanner5) QueryEdge(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	if s.memo {
		if ans, ok := s.keepMemo[[2]int{u, v}]; ok {
			return ans
		}
	}
	ans := s.query(u, v)
	if s.memo {
		s.keepMemo[[2]int{u, v}] = ans
	}
	return ans
}

func (s *Spanner5) query(u, v int) bool {
	du, dv := s.degree(u), s.degree(v)
	// E_low.
	if du <= s.dLow || dv <= s.dLow {
		return true
	}
	// E_super: membership edges and block scans.
	if s.super.keep(u, v) {
		return true
	}
	// Bucket-cluster membership edges (rule A of H_bckt).
	if s.inBcktCenterSet(u, v) || s.inBcktCenterSet(v, u) {
		return true
	}
	// Representative membership edges (rule A of H_rep).
	if s.repMemberEdge(u, v, du, dv) {
		return true
	}
	// Bucket rule (B).
	if du >= s.dMed && dv >= s.dMed && s.bcktRule(u, v) {
		return true
	}
	// Representative rule (B), both orientations.
	inBandU := du >= s.dMed && du <= s.dSuper
	inBandV := dv >= s.dMed && dv <= s.dSuper
	if inBandU && inBandV {
		if s.repScan(u, v) || s.repScan(v, u) {
			return true
		}
	}
	return false
}

// isBcktCenter reports whether v is a bucket-cluster center: sampled by the
// hash family and of degree at most dSuper (the degree cap that makes
// cluster enumeration affordable, paper "LCA for E_bckt"). Costs one Degree
// probe when the sampling bit is set.
func (s *Spanner5) isBcktCenter(v int) bool {
	return s.bcktFam.Bernoulli(uint64(v), s.bcktP) && s.degree(v) <= s.dSuper
}

// inBcktCenterSet reports whether center c lies in S(w): one Adjacency
// probe plus the center check.
func (s *Spanner5) inBcktCenterSet(w, c int) bool {
	if !s.isBcktCenter(c) {
		return false
	}
	idx := s.counter.Adjacency(w, c)
	return idx >= 0 && idx < s.dMed
}

// bcktCenters returns S+(v): centers among the first min(deg, dMed)
// neighbors of v, plus v itself if v is a center. The prefix scan is
// hinted as one exploration; per-cell probe accounting is unchanged.
func (s *Spanner5) bcktCenters(v int) []int {
	s.counter.Prefetch(v)
	deg := s.degree(v)
	limit := deg
	if limit > s.dMed {
		limit = s.dMed
	}
	var out []int
	for i := 0; i < limit; i++ {
		w := s.counter.Neighbor(v, i)
		if w >= 0 && s.isBcktCenter(w) {
			out = append(out, w)
		}
	}
	if s.isBcktCenter(v) {
		out = append(out, v)
	}
	return out
}

// cluster returns C(c) = {c} ∪ {w in Γ(c) : c in S(w)}, sorted by ID.
// Probes: deg(c) Neighbor + deg(c) Adjacency (deg(c) <= dSuper by the
// center degree cap).
func (s *Spanner5) cluster(c int) []int {
	if s.memo {
		if m, ok := s.clusterMemo[c]; ok {
			return m
		}
	}
	// The center's whole row is scanned below; one hint fetches it in a
	// single batched round trip on network backends.
	s.counter.Prefetch(c)
	deg := s.degree(c)
	members := []int{c}
	for i := 0; i < deg; i++ {
		w := s.counter.Neighbor(c, i)
		if w < 0 {
			break
		}
		idx := s.counter.Adjacency(w, c)
		if idx >= 0 && idx < s.dMed {
			members = append(members, w)
		}
	}
	sort.Ints(members)
	if s.memo {
		s.clusterMemo[c] = members
	}
	return members
}

// bucketContaining returns the index and contents of the bucket of the
// sorted cluster member list that contains v: chunks of exactly dMed
// members, the last chunk holding the remainder.
func (s *Spanner5) bucketContaining(members []int, v int) (int, []int) {
	pos := sort.SearchInts(members, v)
	if pos >= len(members) || members[pos] != v {
		return -1, nil
	}
	idx := pos / s.dMed
	lo := idx * s.dMed
	hi := lo + s.dMed
	if hi > len(members) {
		hi = len(members)
	}
	return idx, members[lo:hi]
}

// bcktRule evaluates H_bckt rule (B): (u,v) is kept iff for some pair of
// centers s in S+(u), t in S+(v) with s != t, (u,v) is the minimum-ID
// qualifying edge between the bucket of u in C(s) and the bucket of v in
// C(t).
func (s *Spanner5) bcktRule(u, v int) bool {
	su := s.bcktCenters(u)
	if len(su) == 0 {
		return false
	}
	sv := s.bcktCenters(v)
	// Each distinct cluster is scanned once per query, not once per center
	// pair — the same accounting as the paper's probe analysis.
	local := make(map[int][]int, len(su)+len(sv))
	getCluster := func(c int) []int {
		if m, ok := local[c]; ok {
			return m
		}
		m := s.cluster(c)
		local[c] = m
		return m
	}
	for _, cs := range su {
		for _, ct := range sv {
			if cs == ct {
				continue
			}
			cu := getCluster(cs)
			cv := getCluster(ct)
			bi, bu := s.bucketContaining(cu, u)
			bj, bv := s.bucketContaining(cv, v)
			if bi < 0 || bj < 0 {
				continue
			}
			a, b := s.firstBucketEdge(cs, bi, bu, ct, bj, bv)
			if (a == u && b == v) || (a == v && b == u) {
				return true
			}
		}
	}
	return false
}

// firstBucketEdge finds the unique kept edge between two buckets: the
// lexicographically first pair (by vertex IDs, iterating from the bucket
// with the smaller (centerID, bucketIndex) key) that is an edge whose
// endpoints both have degree >= dMed. It returns (-1,-1) if none exists.
// Probes: one Degree per member of either bucket, then, per screened a in
// order, one Adjacency per screened b != a up to the first edge, asked of
// a's row together (AdjacencyEach with first set).
func (s *Spanner5) firstBucketEdge(cs, bi int, bu []int, ct, bj int, bv []int) (int, int) {
	// Canonical orientation so every query of this bucket pair agrees.
	if cs > ct || (cs == ct && bi > bj) {
		cs, ct = ct, cs
		bi, bj = bj, bi
		bu, bv = bv, bu
	}
	// Both buckets' rows in one exploration hint: the degree screening and
	// the Adjacency pair scan below all read prefetched rows.
	s.cand = append(append(s.cand[:0], bu...), bv...)
	s.counter.Prefetch(s.cand...)
	// Degree screening, one probe per candidate: bu's kept in cand[:na],
	// then bv's after them.
	s.cand = s.cand[:0]
	for _, a := range bu {
		if s.degree(a) >= s.dMed {
			s.cand = append(s.cand, a)
		}
	}
	na := len(s.cand)
	for _, b := range bv {
		if s.degree(b) >= s.dMed {
			s.cand = append(s.cand, b)
		}
	}
	// Each a's targets are the screened bv but a, asked of a's row
	// together, in order, up to the first edge.
	for _, a := range s.cand[:na] {
		s.targets = s.targets[:0]
		for _, b := range s.cand[na:] {
			if b != a {
				s.targets = append(s.targets, b)
			}
		}
		s.idx = grow(s.idx, len(s.targets))
		if n := s.counter.AdjacencyEach(a, s.targets, s.idx, true); n > 0 && s.idx[n-1] >= 0 {
			return a, s.targets[n-1]
		}
	}
	return -1, -1
}

// reps returns Reps(v): among repSamples hash-chosen indices into the first
// min(deg, dMed) positions of v's list, the neighbors of degree >= dSuper,
// deduplicated and sorted. Probes: O(log n) Neighbor + Degree.
func (s *Spanner5) reps(v int) []int {
	if s.memo {
		if r, ok := s.repsMemo[v]; ok {
			return r
		}
	}
	s.counter.Prefetch(v)
	deg := s.degree(v)
	limit := deg
	if limit > s.dMed {
		limit = s.dMed
	}
	var out []int
	if limit > 0 {
		seen := make(map[int]bool, s.repSamples)
		for j := 0; j < s.repSamples; j++ {
			idx := s.repFam.Intn(rnd.Pair(uint64(v), uint64(j)), limit)
			x := s.counter.Neighbor(v, idx)
			if x < 0 || seen[x] {
				continue
			}
			seen[x] = true
			if s.degree(x) >= s.dSuper {
				out = append(out, x)
			}
		}
		sort.Ints(out)
	}
	if s.memo {
		s.repsMemo[v] = out
	}
	return out
}

// repMemberEdge evaluates H_rep rule (A): (u,v) is kept if one endpoint is
// in the band [dMed, dSuper] and the other is one of its representatives.
func (s *Spanner5) repMemberEdge(u, v, du, dv int) bool {
	if du >= s.dMed && du <= s.dSuper && contains(s.reps(u), v) {
		return true
	}
	if dv >= s.dMed && dv <= s.dSuper && contains(s.reps(v), u) {
		return true
	}
	return false
}

// repScan evaluates H_rep rule (B) with scanner u: v introduces a center
// (through some representative) that no earlier band neighbor of u reaches
// through its representatives. Probes: per earlier neighbor, one Neighbor
// and one Degree, and for a band neighbor its reps, then per
// representative one Adjacency per center still uncovered, asked of the
// representative's row together (super.cover).
func (s *Spanner5) repScan(u, v int) bool {
	rs := s.repCenterSet(v)
	if len(rs) == 0 {
		return false
	}
	s.counter.Prefetch(u)
	pos := s.counter.Adjacency(u, v)
	if pos < 0 {
		return false
	}
	left := rs // the centers not covered yet; cover shrinks it in place
	for j := 0; j < pos && len(left) > 0; j++ {
		w := s.counter.Neighbor(u, j)
		if w < 0 {
			break
		}
		dw := s.degree(w)
		if dw < s.dMed || dw > s.dSuper {
			continue
		}
		for _, x := range s.reps(w) {
			if left = s.super.cover(x, left); len(left) == 0 {
				break
			}
		}
	}
	return len(left) > 0
}

// repCenterSet returns RS(v) = ∪_{x in Reps(v)} S'(x), deduplicated.
func (s *Spanner5) repCenterSet(v int) []int {
	var out []int
	seen := make(map[int]bool)
	for _, x := range s.reps(v) {
		for _, c := range s.super.centerSet(x) {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

func contains(sorted []int, x int) bool {
	i := sort.SearchInts(sorted, x)
	return i < len(sorted) && sorted[i] == x
}
