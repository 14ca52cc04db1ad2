package rnd

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestSeedDeriveDistinct(t *testing.T) {
	s := Seed(42)
	seen := make(map[Seed]uint64)
	for i := uint64(0); i < 10000; i++ {
		d := s.Derive(i)
		if prev, ok := seen[d]; ok {
			t.Fatalf("Derive collision: labels %d and %d both map to %x", prev, i, d)
		}
		seen[d] = i
	}
}

func TestSeedDeriveDeterministic(t *testing.T) {
	if Seed(7).Derive(3) != Seed(7).Derive(3) {
		t.Fatal("Derive is not deterministic")
	}
	if Seed(7).Derive(3) == Seed(8).Derive(3) {
		t.Fatal("Derive ignores the seed")
	}
}

func TestPRGDeterminism(t *testing.T) {
	a, b := NewPRG(123), NewPRG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("PRG diverged at step %d", i)
		}
	}
}

func TestPRGIntnRange(t *testing.T) {
	p := NewPRG(1)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := p.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestPRGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewPRG(1).Intn(0)
}

func TestPRGIntnUniform(t *testing.T) {
	p := NewPRG(99)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[p.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from %f", i, c, want)
		}
	}
}

func TestPRGFloat64Range(t *testing.T) {
	p := NewPRG(5)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
		sum += f
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %f, want about 0.5", mean)
	}
}

func TestPRGPerm(t *testing.T) {
	p := NewPRG(11)
	for _, n := range []int{0, 1, 2, 10, 100} {
		perm := p.Perm(n)
		if len(perm) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(perm))
		}
		seen := make([]bool, n)
		for _, v := range perm {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, perm)
			}
			seen[v] = true
		}
	}
}

// addMod61 returns (a + b) mod 2^61-1 for a, b < 2^62: the reference
// addition of the fully reduced Horner rule.
func addMod61(a, b uint64) uint64 {
	s := a + b
	s = (s & mersenne61) + (s >> 61)
	if s >= mersenne61 {
		s -= mersenne61
	}
	return s
}

// mulMod61 returns (a * b) mod 2^61-1 for a, b < 2^61: the reference
// multiplication of the fully reduced Horner rule.
func mulMod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	res := (lo & mersenne61) + (lo>>61 | hi<<3)
	res = (res & mersenne61) + (res >> 61)
	if res >= mersenne61 {
		res -= mersenne61
	}
	return res
}

// hashReference is Family.Hash with the accumulator fully reduced after
// every Horner step.
func hashReference(coeff []uint64, x uint64) uint64 {
	x = x % mersenne61
	acc := uint64(0)
	for _, c := range coeff {
		acc = addMod61(mulMod61(acc, x), c)
	}
	return acc
}

// TestMulMod61 checks the multiply-add that Hash's Horner steps use, and
// the reference multiplication, against 128-bit arithmetic: the product
// reduces to the true residue, and the lazy result stays below 2^62.
func TestMulMod61(t *testing.T) {
	cases := []struct{ a, b uint64 }{
		{0, 0}, {1, 1}, {mersenne61 - 1, mersenne61 - 1},
		{mersenne61 - 1, 2}, {1 << 60, 1 << 60}, {12345678901234567, 98765432109876543 % mersenne61},
		{1<<62 - 1, mersenne61}, {1<<61 + 7, mersenne61 - 1},
	}
	for _, c := range cases {
		// Check against big-integer arithmetic via math/bits decomposition.
		hi, lo := mulCheck(c.a, c.b)
		want := mod61Big(hi, lo)
		for _, add := range []uint64{0, 1, mersenne61 - 1, mersenne61} {
			lazy := mulAdd61(c.a, c.b, add)
			if lazy >= 1<<62 {
				t.Errorf("mulAdd61(%d,%d,%d) = %d, not below 2^62", c.a, c.b, add, lazy)
			}
			if got, want := reduce61(lazy), (want+add%mersenne61)%mersenne61; got != want {
				t.Errorf("mulAdd61(%d,%d,%d) reduces to %d, want %d", c.a, c.b, add, got, want)
			}
		}
		if c.a < 1<<61 && c.b < 1<<61 {
			if got := mulMod61(c.a, c.b); got != want {
				t.Errorf("mulMod61(%d,%d) = %d, want %d", c.a, c.b, got, want)
			}
		}
	}
}

// TestFamilyHashMatchesReference pins the lazily reduced Hash to the
// fully reduced Horner rule at every independence from 2 to 64, on random
// inputs, on the inputs at and around the modulus and the word size, and
// with the extreme coefficients 0 and M-1 (M = 2^61-1) everywhere.
func TestFamilyHashMatchesReference(t *testing.T) {
	const m = mersenne61
	inputs := []uint64{0, 1, m - 1, m, m + 1, 1 << 61, 1<<62 - 1, 1 << 63, 1<<64 - 1}
	p := NewPRG(61)
	for range 64 {
		inputs = append(inputs, p.Uint64(), p.Uint64()>>3)
	}
	for d := 2; d <= 64; d++ {
		drawn := NewFamily(Seed(d), d)
		if drawn.Independence() != d {
			t.Fatalf("NewFamily(%d) has independence %d", d, drawn.Independence())
		}
		fams := []*Family{
			drawn,
			{coeff: make([]uint64, d)}, // all zero
			{coeff: make([]uint64, d)}, // all M-1
			{coeff: append([]uint64(nil), drawn.coeff...)},
		}
		for i := range fams[2].coeff {
			fams[2].coeff[i] = m - 1
		}
		for i := range fams[3].coeff { // alternate the extremes with the drawn values
			switch i % 3 {
			case 0:
				fams[3].coeff[i] = 0
			case 1:
				fams[3].coeff[i] = m - 1
			}
		}
		for k, f := range fams {
			for _, x := range inputs {
				if got, want := f.Hash(x), hashReference(f.coeff, x); got != want {
					t.Fatalf("independence %d, family %d: Hash(%d) = %d, reference %d", d, k, x, got, want)
				}
			}
		}
	}
}

// mulCheck computes the full 128-bit product naively through 32-bit limbs.
func mulCheck(a, b uint64) (hi, lo uint64) {
	a0, a1 := a&0xffffffff, a>>32
	b0, b1 := b&0xffffffff, b>>32
	t := a0 * b0
	lo = t & 0xffffffff
	carry := t >> 32
	t = a1*b0 + carry
	carry = t >> 32
	mid := t & 0xffffffff
	t = a0*b1 + mid
	lo |= (t & 0xffffffff) << 32
	hi = a1*b1 + carry + (t >> 32)
	return hi, lo
}

// mod61Big reduces a 128-bit value modulo 2^61-1 by repeated folding.
func mod61Big(hi, lo uint64) uint64 {
	// value = hi*2^64 + lo ≡ hi*8 + lo (mod 2^61-1), applied until small.
	res := (lo & mersenne61) + (lo >> 61) + (hi << 3 & mersenne61) + (hi >> 58)
	for res >= mersenne61 {
		res = (res & mersenne61) + (res >> 61)
		if res >= mersenne61 && res < 2*mersenne61 {
			res -= mersenne61
		}
	}
	return res
}

func TestFamilyDeterministic(t *testing.T) {
	f1 := NewFamily(77, 8)
	f2 := NewFamily(77, 8)
	for x := uint64(0); x < 1000; x++ {
		if f1.Hash(x) != f2.Hash(x) {
			t.Fatalf("family not deterministic at %d", x)
		}
	}
}

func TestFamilyRange(t *testing.T) {
	f := NewFamily(3, 4)
	for x := uint64(0); x < 10000; x++ {
		if h := f.Hash(x); h >= mersenne61 {
			t.Fatalf("Hash(%d) = %d outside field", x, h)
		}
	}
}

func TestFamilyUniformity(t *testing.T) {
	f := NewFamily(123, 16)
	const buckets, trials = 16, 200000
	counts := make([]int, buckets)
	for x := uint64(0); x < trials; x++ {
		counts[f.Hash(x)%buckets]++
	}
	want := float64(trials) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %f", i, c, want)
		}
	}
}

func TestFamilyPairwiseIndependenceSmoke(t *testing.T) {
	// For a pairwise independent family, Pr[h(x) even AND h(y) even] should
	// be about 1/4 across random function draws.
	const trials = 4000
	hits := 0
	for s := 0; s < trials; s++ {
		f := NewFamily(Seed(s), 2)
		if f.Hash(10)&1 == 0 && f.Hash(20)&1 == 0 {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-0.25) > 0.04 {
		t.Errorf("joint even-even probability %f, want about 0.25", got)
	}
}

func TestFamilyBernoulli(t *testing.T) {
	f := NewFamily(9, 8)
	for _, p := range []float64{0, 0.01, 0.25, 0.5, 0.9, 1} {
		hits := 0
		const trials = 100000
		for x := uint64(0); x < trials; x++ {
			if f.Bernoulli(x, p) {
				hits++
			}
		}
		got := float64(hits) / trials
		tol := 4*math.Sqrt(p*(1-p)/trials) + 1e-9
		if math.Abs(got-p) > tol {
			t.Errorf("Bernoulli(%f): rate %f, tolerance %f", p, got, tol)
		}
	}
}

func TestFamilyBernoulliConsistent(t *testing.T) {
	f := NewFamily(4, 8)
	for x := uint64(0); x < 100; x++ {
		a := f.Bernoulli(x, 0.3)
		for i := 0; i < 3; i++ {
			if f.Bernoulli(x, 0.3) != a {
				t.Fatalf("Bernoulli not consistent for x=%d", x)
			}
		}
	}
}

func TestFamilyBernoulliMonotoneInP(t *testing.T) {
	// If a vertex is sampled at probability p it must also be sampled at
	// every p' > p; threshold tests guarantee this, and some LCA layering
	// arguments rely on it.
	f := NewFamily(8, 8)
	for x := uint64(0); x < 2000; x++ {
		if f.Bernoulli(x, 0.1) && !f.Bernoulli(x, 0.5) {
			t.Fatalf("Bernoulli not monotone in p at x=%d", x)
		}
	}
}

func TestFamilyIntn(t *testing.T) {
	f := NewFamily(5, 4)
	for _, n := range []int{1, 2, 10, 1000} {
		for x := uint64(0); x < 500; x++ {
			v := f.Intn(x, n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d,%d) = %d out of range", x, n, v)
			}
		}
	}
}

func TestPairInjectiveOnSmallDomain(t *testing.T) {
	seen := make(map[uint64][2]uint64)
	for a := uint64(0); a < 200; a++ {
		for b := uint64(0); b < 200; b++ {
			k := Pair(a, b)
			if prev, ok := seen[k]; ok && (prev[0] != a || prev[1] != b) {
				t.Fatalf("Pair collision: (%d,%d) and (%d,%d)", prev[0], prev[1], a, b)
			}
			seen[k] = [2]uint64{a, b}
		}
	}
}

func TestPairOrderSensitive(t *testing.T) {
	if Pair(1, 2) == Pair(2, 1) {
		t.Fatal("Pair must distinguish order")
	}
}

func TestRank128Less(t *testing.T) {
	cases := []struct {
		a, b Rank128
		want bool
	}{
		{Rank128{0, 0}, Rank128{0, 1}, true},
		{Rank128{0, 1}, Rank128{0, 0}, false},
		{Rank128{1, 0}, Rank128{0, ^uint64(0)}, false},
		{Rank128{0, ^uint64(0)}, Rank128{1, 0}, true},
		{Rank128{5, 5}, Rank128{5, 5}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRank128IsZeroPrefix(t *testing.T) {
	r := Rank128{Hi: 1 << 40, Lo: 0} // bit 23 (0-indexed from the top) set
	if !r.IsZeroPrefix(23, 1) {
		t.Error("first 23 bits should be zero")
	}
	if r.IsZeroPrefix(24, 1) {
		t.Error("first 24 bits include the set bit")
	}
	zero := Rank128{}
	if !zero.IsZeroPrefix(128, 1) || !zero.IsZeroPrefix(64, 2) {
		t.Error("zero rank should have all-zero prefixes")
	}
	lowbit := Rank128{Hi: 0, Lo: 1}
	if !lowbit.IsZeroPrefix(127, 1) {
		t.Error("first 127 bits of Lo=1 are zero")
	}
	if lowbit.IsZeroPrefix(128, 1) {
		t.Error("bit 128 of Lo=1 is set")
	}
}

func TestRankAssignerDeterministicAndDistinct(t *testing.T) {
	ra := NewRankAssigner(31, 4, 8, 16)
	rb := NewRankAssigner(31, 4, 8, 16)
	collisions := 0
	seen := make(map[Rank128]bool)
	for x := uint64(0); x < 5000; x++ {
		r := ra.Rank(x)
		if r != rb.Rank(x) {
			t.Fatalf("rank not deterministic at %d", x)
		}
		if seen[r] {
			collisions++
		}
		seen[r] = true
	}
	// 32 bits of rank over 5000 values: expected collisions about
	// 5000^2/2^33 ≈ 0.003, allow a little slack.
	if collisions > 3 {
		t.Errorf("too many rank collisions: %d", collisions)
	}
}

func TestRankAssignerClamping(t *testing.T) {
	ra := NewRankAssigner(1, 40, 10, 8) // 400 bits requested, must clamp
	if ra.Blocks()*ra.BlockBits() > 128 {
		t.Fatalf("rank width %d exceeds 128 bits", ra.Blocks()*ra.BlockBits())
	}
	if ra.Blocks() < 1 || ra.BlockBits() < 1 {
		t.Fatal("clamping destroyed the assigner")
	}
}

func TestRankAssignerBlockStructure(t *testing.T) {
	// With one block of b bits, the rank must be h(x) & (2^b-1) shifted to
	// the top of Hi.
	ra := NewRankAssigner(7, 1, 8, 4)
	f := NewFamily(Seed(7).Derive(1000), 4)
	for x := uint64(0); x < 100; x++ {
		want := (f.Hash(x) & 0xff) << 56
		if got := ra.Rank(x); got.Hi != want || got.Lo != 0 {
			t.Fatalf("rank(%d) = %+v, want Hi=%x", x, got, want)
		}
	}
}

func TestRankZeroPrefixProbability(t *testing.T) {
	// Each 4-bit block is zero with probability 1/16; measure block 0.
	ra := NewRankAssigner(13, 8, 4, 16)
	zero := 0
	const trials = 100000
	for x := uint64(0); x < trials; x++ {
		if ra.Rank(x).IsZeroPrefix(1, 4) {
			zero++
		}
	}
	got := float64(zero) / trials
	if math.Abs(got-1.0/16) > 0.005 {
		t.Errorf("zero-block rate %f, want about %f", got, 1.0/16)
	}
}

func TestQuickFamilyHashStable(t *testing.T) {
	f := NewFamily(2024, 8)
	err := quick.Check(func(x uint64) bool {
		return f.Hash(x) == f.Hash(x) && f.Hash(x) < mersenne61
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickPairDistinguishesOrder(t *testing.T) {
	err := quick.Check(func(a, b uint64) bool {
		if a == b {
			return true
		}
		return Pair(a, b) != Pair(b, a)
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkFamilyHash(b *testing.B) {
	f := NewFamily(1, 16)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += f.Hash(uint64(i))
	}
	_ = sink
}

func BenchmarkRankAssigner(b *testing.B) {
	ra := NewRankAssigner(1, 8, 8, 16)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += ra.Rank(uint64(i)).Hi
	}
	_ = sink
}

func TestFamilyTripleIndependenceChiSquare(t *testing.T) {
	// For a 3-wise independent family, the parity triple
	// (h(x)&1, h(y)&1, h(z)&1) must be uniform over {0,1}^3 across function
	// draws. A chi-square test with 7 degrees of freedom at significance
	// ~0.001 has threshold 24.32.
	const trials = 8000
	counts := make([]int, 8)
	for s := 0; s < trials; s++ {
		f := NewFamily(Seed(s).Derive(0x77), 3)
		idx := int(f.Hash(11)&1)<<2 | int(f.Hash(22)&1)<<1 | int(f.Hash(33)&1)
		counts[idx]++
	}
	expected := float64(trials) / 8
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 24.32 {
		t.Errorf("chi-square %.2f exceeds the 0.001 threshold; counts %v", chi2, counts)
	}
}

func TestFamilySeedSensitivity(t *testing.T) {
	// Different seeds must give different functions (w.h.p.): check that
	// evaluation tables differ.
	a := NewFamily(1, 8)
	b := NewFamily(2, 8)
	same := 0
	for x := uint64(0); x < 100; x++ {
		if a.Hash(x) == b.Hash(x) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d/100 collisions between different seeds", same)
	}
}

func TestRankAssignerBlocksUseDistinctFamilies(t *testing.T) {
	// Block i and block j of the same rank must be decorrelated: the joint
	// distribution of (block0==0, block1==0) should be about p^2.
	ra := NewRankAssigner(99, 2, 4, 8)
	both, first := 0, 0
	const trials = 100000
	for x := uint64(0); x < trials; x++ {
		r := ra.Rank(x)
		b0 := r.Hi>>60 == 0
		b1 := (r.Hi>>56)&0xf == 0
		if b0 {
			first++
			if b1 {
				both++
			}
		}
	}
	pFirst := float64(first) / trials
	pBoth := float64(both) / trials
	if math.Abs(pBoth-pFirst/16) > 0.004 {
		t.Errorf("blocks correlated: P[both]=%.4f, want about %.4f", pBoth, pFirst/16)
	}
}

func TestPRGBoolAndShuffle(t *testing.T) {
	p := NewPRG(31)
	heads := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if p.Bool() {
			heads++
		}
	}
	if heads < trials*45/100 || heads > trials*55/100 {
		t.Errorf("Bool heads rate %d/%d far from fair", heads, trials)
	}
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	p.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, x := range xs {
		if x < 0 || x >= len(seen) || seen[x] {
			t.Fatalf("Shuffle broke the permutation: %v", xs)
		}
		seen[x] = true
	}
}

func TestFamilyFloatAndIndependence(t *testing.T) {
	f := NewFamily(3, 12)
	if f.Independence() != 12 {
		t.Errorf("Independence = %d", f.Independence())
	}
	sum := 0.0
	const trials = 50000
	for x := uint64(0); x < trials; x++ {
		v := f.Float(x)
		if v < 0 || v >= 1 {
			t.Fatalf("Float out of range: %f", v)
		}
		sum += v
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float mean %f", mean)
	}
	// Independence below 2 promotes to 2.
	if NewFamily(1, 0).Independence() != 2 {
		t.Error("independence clamp failed")
	}
}

func TestFamilyIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(x, 0) must panic")
		}
	}()
	NewFamily(1, 4).Intn(3, 0)
}

func TestFamilyHashLargeInputReduction(t *testing.T) {
	// Inputs above the field modulus must reduce consistently.
	f := NewFamily(5, 4)
	big := uint64(1)<<63 + 12345
	if f.Hash(big) != f.Hash(big) {
		t.Fatal("large-input hashing not deterministic")
	}
	if f.Hash(big) >= mersenne61 {
		t.Fatal("large-input hash outside field")
	}
}

func TestRankAssignerStraddlingBlock(t *testing.T) {
	// 13 blocks x 7 bits = 91 bits: some block straddles the Hi/Lo word
	// boundary; ranks must still be deterministic and well-formed.
	ra := NewRankAssigner(17, 13, 7, 8)
	if ra.Blocks()*ra.BlockBits() > 128 {
		t.Fatal("width exceeds 128")
	}
	seen := make(map[Rank128]bool)
	for x := uint64(0); x < 3000; x++ {
		r := ra.Rank(x)
		if r != ra.Rank(x) {
			t.Fatal("rank not deterministic")
		}
		seen[r] = true
	}
	if len(seen) < 2900 {
		t.Errorf("too many rank collisions: %d distinct of 3000", len(seen))
	}
}

func TestBernoulliExtremes(t *testing.T) {
	f := NewFamily(2, 4)
	for x := uint64(0); x < 50; x++ {
		if f.Bernoulli(x, 0) {
			t.Fatal("p=0 must never fire")
		}
		if !f.Bernoulli(x, 1) {
			t.Fatal("p=1 must always fire")
		}
		if !f.Bernoulli(x, 2.5) {
			t.Fatal("p>1 clamps to certain")
		}
		if f.Bernoulli(x, -1) {
			t.Fatal("p<0 clamps to never")
		}
	}
}

func TestIsZeroPrefixDegenerate(t *testing.T) {
	r := Rank128{Hi: ^uint64(0), Lo: ^uint64(0)}
	if !r.IsZeroPrefix(0, 4) {
		t.Error("zero-length prefix is vacuously zero")
	}
	if !r.IsZeroPrefix(-1, 8) {
		t.Error("negative block count is vacuously zero")
	}
	if r.IsZeroPrefix(40, 4) {
		t.Error("all-ones rank has no zero prefix")
	}
}
