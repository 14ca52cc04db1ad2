// Package rnd provides the randomness substrate for local computation
// algorithms: a small deterministic PRG and k-wise independent hash
// families over the Mersenne-prime field GF(2^61-1).
//
// LCAs must answer every query consistently with one fixed global solution
// while storing only a short random seed. All per-vertex and per-edge
// random decisions are therefore derived from hash families evaluated on
// vertex IDs, never from stateful random streams. The families here follow
// the classical polynomial construction (Vadhan, "Pseudorandomness",
// Corollary 3.34): a degree-(d-1) polynomial with uniform coefficients over
// a prime field is a d-wise independent function family and needs only
// d·O(log n) seed bits.
package rnd

import "math/bits"

// Seed is a 64-bit master seed from which all other randomness is derived.
// Two harness runs with equal seeds make identical decisions everywhere.
type Seed uint64

// Derive deterministically produces an independent-looking sub-seed for the
// given label. Distinct labels yield decorrelated streams (splitmix64 is a
// bijective finalizer, so label collisions are the only collisions).
func (s Seed) Derive(label uint64) Seed {
	return Seed(mix64(uint64(s) ^ (label*0x9e3779b97f4a7c15 + 0x85ebca6b)))
}

// mix64 is the splitmix64 finalizer: a fast, high-quality 64-bit mixing
// bijection.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PRG is a splitmix64 pseudo-random generator. It is used only where full
// independence is acceptable (graph generation, experiment workloads) —
// never inside an LCA's per-query logic, which must use Family so that the
// same decision is reproduced on every query.
type PRG struct {
	state uint64
}

// NewPRG returns a generator seeded with s.
func NewPRG(s Seed) *PRG {
	return &PRG{state: uint64(s)}
}

// Uint64 returns the next 64 uniform bits.
func (p *PRG) Uint64() uint64 {
	p.state += 0x9e3779b97f4a7c15
	return mix64(p.state - 0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (p *PRG) Intn(n int) int {
	if n <= 0 {
		panic("rnd: Intn with non-positive bound")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	bound := uint64(n)
	for {
		x := p.Uint64()
		hi, lo := bits.Mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (p *PRG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (p *PRG) Bool() bool { return p.Uint64()&1 == 1 }

// Perm returns a uniform permutation of [0, n) (Fisher-Yates).
func (p *PRG) Perm(n int) []int {
	out := make([]int, n)
	for i := 1; i < n; i++ {
		j := p.Intn(i + 1)
		out[i] = out[j]
		out[j] = i
	}
	return out
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (p *PRG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		swap(i, j)
	}
}

// mersenne61 is the Mersenne prime 2^61 - 1, the field modulus for all hash
// families. Field elements fit a uint64 with three spare bits, which makes
// the modular reduction after a 128-bit product branch-light.
const mersenne61 = (1 << 61) - 1

// reduce61 returns x mod 2^61-1 for any x: x = hi·2^61 + lo ≡ lo + hi,
// and lo + hi ≤ 2^61-1 + 7 needs at most one subtraction.
func reduce61(x uint64) uint64 {
	x = (x & mersenne61) + (x >> 61)
	if x >= mersenne61 {
		x -= mersenne61
	}
	return x
}

// mulAdd61 returns a value below 2^62 congruent to a·x + c mod 2^61-1,
// for a < 2^62 and x, c < 2^61, without reducing it into the field.
// a·x < 2^123 splits as hi·2^64 + lo with hi < 2^59, and 2^64 ≡ 8, so
// a·x ≡ (lo mod 2^61) + (lo>>61 | hi<<3) < 2^61 + 2^62. Adding c keeps
// the sum s below 2^64, and s ≡ (s mod 2^61) + s>>61 < 2^61 + 8.
func mulAdd61(a, x, c uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	s := (lo & mersenne61) + (lo>>61 | hi<<3) + c
	return (s & mersenne61) + (s >> 61)
}

// Family is a d-wise independent hash function h: uint64 -> [0, 2^61-1),
// realized as a random polynomial of degree d-1 over GF(2^61-1). The seed
// cost is d field elements (d · 61 bits), matching the poly-logarithmic
// seed lengths required by the bounded-independence constructions in the
// LCA literature (paper §5).
//
// The zero value is unusable; construct with NewFamily.
type Family struct {
	coeff []uint64 // coefficients, constant term last (Horner order)
}

// NewFamily draws one function from the d-wise independent family using
// randomness derived from seed. Independence below 2 is promoted to 2.
func NewFamily(seed Seed, independence int) *Family {
	if independence < 2 {
		independence = 2
	}
	p := NewPRG(seed)
	coeff := make([]uint64, independence)
	for i := range coeff {
		// Rejection-sample a uniform field element.
		for {
			x := p.Uint64() >> 3 // 61 bits
			if x < mersenne61 {
				coeff[i] = x
				break
			}
		}
	}
	return &Family{coeff: coeff}
}

// Independence reports the d for which the family is d-wise independent.
func (f *Family) Independence() int { return len(f.coeff) }

// Hash evaluates the polynomial at x (reduced into the field first) and
// returns a value uniform in [0, 2^61-1).
//
// Horner's rule runs on a lazily reduced accumulator: every step is one
// mulAdd61, which keeps it below 2^62 (below 2^61 + 8, in fact) and
// congruent to the fully reduced value, and a single reduce61 at the end
// folds it into the field. The result equals reducing after every step.
func (f *Family) Hash(x uint64) uint64 {
	// Inputs are vertex IDs (< 2^61 in all realistic uses), so the
	// reduction is a formality.
	x = reduce61(x)
	acc := uint64(0)
	for _, c := range f.coeff {
		acc = mulAdd61(acc, x, c)
	}
	return reduce61(acc)
}

// Float evaluates the hash as a uniform real in [0, 1).
func (f *Family) Float(x uint64) float64 {
	return float64(f.Hash(x)) / float64(mersenne61)
}

// Bernoulli reports a p-biased coin flip for x: the same x always flips the
// same way, and across d distinct inputs the flips are d-wise independent.
func (f *Family) Bernoulli(x uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	threshold := uint64(p * float64(mersenne61))
	return f.Hash(x) < threshold
}

// Intn maps x to a d-wise independent value in [0, n). The modulo bias is
// at most n/2^61 and irrelevant for the n used here. It panics if n <= 0.
func (f *Family) Intn(x uint64, n int) int {
	if n <= 0 {
		panic("rnd: Family.Intn with non-positive bound")
	}
	return int(f.Hash(x) % uint64(n))
}

// Pair folds an ordered pair into one input value so families can hash
// edges, (vertex, index) pairs, and similar composites. Fibonacci mixing on
// the first coordinate keeps (a,b) and (b,a) distinct.
func Pair(a, b uint64) uint64 {
	return mix64(a*0x9e3779b97f4a7c15 + 0x165667b19e3779f9 ^ b)
}

// Rank128 is a 128-bit comparable rank used by the O(k^2)-spanner
// construction (paper §5.2): the rank of a center is the concatenation of k
// blocks of N bits, block i produced by an independent O(log n)-wise
// family. Ranks compare lexicographically block 0 first.
type Rank128 struct {
	Hi, Lo uint64
}

// Less orders ranks lexicographically (smaller rank = "lower").
func (r Rank128) Less(o Rank128) bool {
	if r.Hi != o.Hi {
		return r.Hi < o.Hi
	}
	return r.Lo < o.Lo
}

// IsZeroPrefix reports whether the first `blocks` blocks of `blockBits`
// bits are all zero, the predicate driving the inductive stretch argument
// with bounded independence (paper Lemma 5.5).
func (r Rank128) IsZeroPrefix(blocks, blockBits int) bool {
	n := blocks * blockBits
	if n <= 0 {
		return true
	}
	if n >= 128 {
		return r.Hi == 0 && r.Lo == 0
	}
	if n <= 64 {
		return r.Hi>>(64-n) == 0
	}
	return r.Hi == 0 && r.Lo>>(128-n) == 0
}

// RankAssigner produces Rank128 ranks from k independent bounded-
// independence hash families, following the construction of §5.2: block i
// of the rank of v is h_i(ID(v)) truncated to blockBits bits.
type RankAssigner struct {
	families  []*Family
	blockBits int
}

// NewRankAssigner builds k families of the given independence. blockBits is
// clamped so that k·blockBits ≤ 128.
func NewRankAssigner(seed Seed, k, blockBits, independence int) *RankAssigner {
	if k < 1 {
		k = 1
	}
	if blockBits < 1 {
		blockBits = 1
	}
	for k*blockBits > 128 {
		if blockBits > 1 {
			blockBits--
		} else {
			k--
		}
	}
	fams := make([]*Family, k)
	for i := range fams {
		fams[i] = NewFamily(seed.Derive(uint64(1000+i)), independence)
	}
	return &RankAssigner{families: fams, blockBits: blockBits}
}

// Blocks reports the number of rank blocks (the k of the construction).
func (ra *RankAssigner) Blocks() int { return len(ra.families) }

// BlockBits reports the width of each rank block in bits.
func (ra *RankAssigner) BlockBits() int { return ra.blockBits }

// Rank returns the concatenated-block rank of x.
func (ra *RankAssigner) Rank(x uint64) Rank128 {
	var r Rank128
	pos := 0
	mask := uint64(1)<<ra.blockBits - 1
	for _, f := range ra.families {
		block := f.Hash(x) & mask
		hiStart := pos
		if hiStart+ra.blockBits <= 64 {
			r.Hi |= block << (64 - hiStart - ra.blockBits)
		} else if hiStart >= 64 {
			r.Lo |= block << (128 - hiStart - ra.blockBits)
		} else {
			// Block straddles the Hi/Lo boundary.
			over := hiStart + ra.blockBits - 64
			r.Hi |= block >> over
			r.Lo |= block << (64 - over)
		}
		pos += ra.blockBits
	}
	return r
}
