package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	t.Parallel()
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("streams diverged at draw %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	t.Parallel()
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	t.Parallel()
	root := New(7)
	c1 := root.Split()
	c2 := root.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			t.Fatalf("sibling streams collided at draw %d", i)
		}
	}
}

// TestSplitIntoMatchesSplit pins the allocation-free variant to Split:
// same parent draws consumed, identical child stream. The pooled engine
// constructors rely on this equivalence for bit-identical simulations.
func TestSplitIntoMatchesSplit(t *testing.T) {
	t.Parallel()
	a, b := New(7), New(7)
	ref := a.Split()
	var dst Source
	b.SplitInto(&dst)
	for i := 0; i < 100; i++ {
		if ref.Uint64() != dst.Uint64() {
			t.Fatalf("SplitInto child diverged from Split child at draw %d", i)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitInto consumed different parent draws than Split")
	}
}

func TestSplitN(t *testing.T) {
	t.Parallel()
	// n children split in turn into pooled storage, as a cluster
	// pre-splits its per-process streams, draw distinct streams.
	parent := New(3)
	kids := make([]Source, 8)
	seen := map[uint64]bool{}
	for i := range kids {
		parent.SplitInto(&kids[i])
		v := kids[i].Uint64()
		if seen[v] {
			t.Fatalf("two children produced the same first draw %d", v)
		}
		seen[v] = true
	}
}

func TestIntnRange(t *testing.T) {
	t.Parallel()
	s := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	t.Parallel()
	s := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d drawn %d times, want ≈%.0f", v, c, want)
		}
	}
}

// intnDraw is one recorded Intn result and the stream position after it.
type intnDraw struct {
	v     int
	state uint64
}

// intnKnownAnswers are six consecutive draws per bound from one New(20)
// stream, bounds in the order listed, recorded with Intn as it stood on the
// hand-rolled 128-bit multiply: small bounds, powers of two, bounds just
// above 2^62 (a quarter of the words drawn are rejected there, so several
// draws below advance the stream by two words) and the largest ints.
var intnKnownAnswers = []struct {
	n     int
	draws []intnDraw
}{
	{0x1, []intnDraw{{0x0, 0x9e3779b97f4a7c29}, {0x0, 0x3c6ef372fe94f83e}, {0x0, 0xdaa66d2c7ddf7453}, {0x0, 0x78dde6e5fd29f068}, {0x0, 0x1715609f7c746c7d}, {0x0, 0xb54cda58fbbee892}}},
	{0x2, []intnDraw{{0x1, 0x538454127b0964a7}, {0x0, 0xf1bbcdcbfa53e0bc}, {0x0, 0x8ff34785799e5cd1}, {0x0, 0x2e2ac13ef8e8d8e6}, {0x0, 0xcc623af8783354fb}, {0x1, 0x6a99b4b1f77dd110}}},
	{0x3, []intnDraw{{0x1, 0x8d12e6b76c84d25}, {0x1, 0xa708a824f612c93a}, {0x1, 0x454021de755d454f}, {0x2, 0xe3779b97f4a7c164}, {0x0, 0x81af155173f23d79}, {0x1, 0x1fe68f0af33cb98e}}},
	{0x5, []intnDraw{{0x3, 0xbe1e08c4728735a3}, {0x3, 0x5c55827df1d1b1b8}, {0x0, 0xfa8cfc37711c2dcd}, {0x1, 0x98c475f0f066a9e2}, {0x2, 0x36fbefaa6fb125f7}, {0x1, 0xd5336963eefba20c}}},
	{0x7, []intnDraw{{0x6, 0x736ae31d6e461e21}, {0x3, 0x11a25cd6ed909a36}, {0x4, 0xafd9d6906cdb164b}, {0x0, 0x4e115049ec259260}, {0x5, 0xec48ca036b700e75}, {0x3, 0x8a8043bceaba8a8a}}},
	{0xa, []intnDraw{{0x2, 0x28b7bd766a05069f}, {0x2, 0xc6ef372fe94f82b4}, {0x3, 0x6526b0e96899fec9}, {0x2, 0x35e2aa2e7e47ade}, {0x8, 0xa195a45c672ef6f3}, {0x4, 0x3fcd1e15e6797308}}},
	{0xf, []intnDraw{{0x9, 0xde0497cf65c3ef1d}, {0xe, 0x7c3c1188e50e6b32}, {0x3, 0x1a738b426458e747}, {0x6, 0xb8ab04fbe3a3635c}, {0x8, 0x56e27eb562eddf71}, {0x4, 0xf519f86ee2385b86}}},
	{0x2f, []intnDraw{{0x2b, 0x935172286182d79b}, {0x26, 0x3188ebe1e0cd53b0}, {0xb, 0xcfc0659b6017cfc5}, {0x2e, 0x6df7df54df624bda}, {0x26, 0xc2f590e5eacc7ef}, {0x13, 0xaa66d2c7ddf74404}}},
	{0x40, []intnDraw{{0x5, 0x489e4c815d41c019}, {0x36, 0xe6d5c63adc8c3c2e}, {0x3b, 0x850d3ff45bd6b843}, {0x7, 0x2344b9addb213458}, {0x25, 0xc17c33675a6bb06d}, {0x12, 0x5fb3ad20d9b62c82}}},
	{0x3e8, []intnDraw{{0x7d, 0xfdeb26da5900a897}, {0x199, 0x9c22a093d84b24ac}, {0x20f, 0x3a5a1a4d5795a0c1}, {0x324, 0xd8919406d6e01cd6}, {0x1f0, 0x76c90dc0562a98eb}, {0x24b, 0x15008779d5751500}}},
	{0x61a8, []intnDraw{{0x5615, 0xb338013354bf9115}, {0x1b10, 0x516f7aecd40a0d2a}, {0xe14, 0xefa6f4a65354893f}, {0xf3e, 0x8dde6e5fd29f0554}, {0x489f, 0x2c15e81951e98169}, {0x2b03, 0xca4d61d2d133fd7e}}},
	{0x10000, []intnDraw{{0x8588, 0x6884db8c507e7993}, {0x1125, 0x6bc5545cfc8f5a8}, {0xcc55, 0xa4f3ceff4f1371bd}, {0x8afa, 0x432b48b8ce5dedd2}, {0xd3d2, 0xe162c2724da869e7}, {0x8a83, 0x7f9a3c2bccf2e5fc}}},
	{0x80000000, []intnDraw{{0x76e2851e, 0x1dd1b5e54c3d6211}, {0x65f7a8dd, 0xbc092f9ecb87de26}, {0x124de329, 0x5a40a9584ad25a3b}, {0x7dcbcc97, 0xf8782311ca1cd650}, {0x70d3778f, 0x96af9ccb49675265}, {0x2150928c, 0x34e71684c8b1ce7a}}},
	{0x100000001, []intnDraw{{0xd4404587, 0xd31e903e47fc4a8f}, {0x590802a2, 0x715609f7c746c6a4}, {0xc17e340f, 0xf8d83b1469142b9}, {0x4515a3d, 0xadc4fd6ac5dbbece}, {0x783892bf, 0x4bfc772445263ae3}, {0x67cab247, 0xea33f0ddc470b6f8}}},
	{0x4000000000000000, []intnDraw{{0x2683568e735cae59, 0x886b6a9743bb330d}, {0x35b5184d9c916acc, 0x26a2e450c305af22}, {0xc53e5f86d3c3cbb, 0xc4da5e0a42502b37}, {0x2b062aa4417a05a8, 0x6311d7c3c19aa74c}, {0x72a790762d0e117, 0x149517d40e52361}, {0x24bf93f011bbd9de, 0x9f80cb36c02f9f76}}},
	{0x4000000000000001, []intnDraw{{0x100f267f5aaf1c55, 0x3db844f03f7a1b8b}, {0x3ef4269b02f920c, 0x7a2738633e0f13b5}, {0x137d976d29926b63, 0x185eb21cbd598fca}, {0x137e754adf063e64, 0x54cda58fbbee87f4}, {0x484b72b3a14d1dc, 0xf3051f493b390409}, {0x36b227954e09d0d7, 0x913c9902ba83801e}}},
	{0x4000000000003039, []intnDraw{{0x35cfacfd51a2f8e6, 0x2f7412bc39cdfc33}, {0x1d95339132e52610, 0xcdab8c75b9187848}, {0x4c8f85b4e259dd3, 0x6be3062f3862f45d}, {0x2321d34abb44375f, 0xa851f9a236f7ec87}, {0x235c9acc985ff35a, 0x4689735bb642689c}, {0x1398db6dc91aa4f9, 0xe4c0ed15358ce4b1}}},
	{0x6000000000000000, []intnDraw{{0x21e09edeaf2e813d, 0x82f866ceb4d760c6}, {0x510ff687e2b72851, 0x212fe0883421dcdb}, {0x3e22284da09ffc56, 0xbf675a41b36c58f0}, {0x92de78f78946d5a, 0x5d9ed3fb32b6d505}, {0x1b74260507f6c6f3, 0x9a0dc76e314bcd2f}, {0x2aea3ccba8cf97e0, 0x38454127b0964944}}},
	{0x7ffffffffffffffe, []intnDraw{{0x32c080995178b76c, 0xd67cbae12fe0c559}, {0x2e389730245fdf76, 0x74b4349aaf2b416e}, {0x555c25abc27d2a8e, 0x12ebae542e75bd83}, {0x551fcf01f2924d3e, 0xb123280dadc03998}, {0x197a5a333ff5fdcd, 0x4f5aa1c72d0ab5ad}, {0x4eaa51ef2a7df507, 0xed921b80ac5531c2}}},
	{0x7fffffffffffffff, []intnDraw{{0x1b53aa5c60e8624f, 0x8bc9953a2b9fadd7}, {0x1c428024b96e0d3a, 0x2a010ef3aaea29ec}, {0x240e4e41fa370227, 0xc83888ad2a34a601}, {0x6d9d585fc65625de, 0x66700266a97f2216}, {0x74e0a837c4927628, 0x4a77c2028c99e2b}, {0x76fc0b312dc56369, 0xa2def5d9a8141a40}}},
}

// TestIntnKnownAnswers pins Intn's values and its consumption of the stream:
// every tape and every figure of the repository hangs on both.
func TestIntnKnownAnswers(t *testing.T) {
	t.Parallel()
	if intnKnownAnswers[len(intnKnownAnswers)-1].n != math.MaxInt {
		t.Fatal("the last recorded bound should be math.MaxInt")
	}
	s := New(20)
	rejections := 0
	for _, row := range intnKnownAnswers {
		for i, want := range row.draws {
			before := s.State()
			if got := s.Intn(row.n); got != want.v || s.State() != want.state {
				t.Fatalf("draw %d of Intn(%#x) = %#x leaving state %#x, recorded %#x and %#x",
					i, row.n, got, s.State(), want.v, want.state)
			}
			if s.State()-before != golden {
				rejections++
			}
		}
	}
	if rejections < 4 {
		t.Errorf("the recorded draws ran the rejection loop %d times, want at least 4", rejections)
	}
}

// mulHiLo is the 128-bit product Intn computed by hand before it called
// math/bits.Mul64 — kept verbatim as the reference for that call.
func mulHiLo(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + (t >> 32) + (aLo*bHi+t&mask32)>>32
	return hi, lo
}

// TestMul64MatchesReference: bits.Mul64 is the old multiply bit for bit, on
// operands at the edges of the 32-bit halves and on random ones.
func TestMul64MatchesReference(t *testing.T) {
	t.Parallel()
	edges := []uint64{0, 1, 2, 3, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<62 + 1, 1<<63 - 1, 1 << 63, 1<<63 + 1,
		math.MaxUint64 - 1, math.MaxUint64, 0xffffffff00000000, 0x00000000ffffffff, golden}
	check := func(a, b uint64) {
		t.Helper()
		hi, lo := bits.Mul64(a, b)
		if rhi, rlo := mulHiLo(a, b); hi != rhi || lo != rlo {
			t.Fatalf("bits.Mul64(%#x, %#x) = (%#x, %#x), reference (%#x, %#x)", a, b, hi, lo, rhi, rlo)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	s := New(77)
	for i := 0; i < 200000; i++ {
		a, b := s.Uint64(), s.Uint64()
		check(a, b)
		check(a, b>>uint(s.Intn(64))) // a bound of any magnitude, as Intn's n is
	}
}

func TestFloat64Range(t *testing.T) {
	t.Parallel()
	s := New(13)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of Float64 draws = %v, want ≈0.5", mean)
	}
}

func TestBoolEdgeCases(t *testing.T) {
	t.Parallel()
	s := New(17)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if s.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !s.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	t.Parallel()
	s := New(19)
	const p, draws = 0.05, 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if s.Bool(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.005 {
		t.Errorf("Bool(%v) hit rate %v", p, got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	t.Parallel()
	s := New(23)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	t.Parallel()
	s := New(29)
	if err := quick.Check(func(nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw % 60)
		out := s.Sample(n, k)
		wantLen := k
		if k >= n {
			wantLen = n
		}
		if k <= 0 {
			wantLen = 0
		}
		if len(out) != wantLen {
			return false
		}
		seen := map[int]bool{}
		for _, v := range out {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleCoverage(t *testing.T) {
	t.Parallel()
	// Every index must be reachable by Sample.
	s := New(31)
	const n, k = 10, 3
	hit := make([]bool, n)
	for i := 0; i < 2000; i++ {
		for _, v := range s.Sample(n, k) {
			hit[v] = true
		}
	}
	for i, h := range hit {
		if !h {
			t.Errorf("index %d never sampled", i)
		}
	}
}

func TestShuffle(t *testing.T) {
	t.Parallel()
	s := New(37)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("shuffle lost element %d", i)
		}
	}
}

func TestZeroValueUsable(t *testing.T) {
	t.Parallel()
	var s Source
	_ = s.Uint64() // must not panic
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(125)
	}
}

func BenchmarkSample(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Sample(125, 3)
	}
}

// sampleMapReference is the historical map-based Sample bookkeeping; the
// fast path must consume the same draws and return the same indices.
func sampleMapReference(s *Source, n, k int) []int {
	if k >= n {
		return s.Perm(n)
	}
	if k <= 0 {
		return nil
	}
	chosen := make(map[int]int, 2*k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		vj, ok := chosen[j]
		if !ok {
			vj = j
		}
		vi, ok := chosen[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		chosen[j] = vi
	}
	return out
}

func TestSampleFastPathMatchesMapPath(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 50; seed++ {
		fast := New(seed)
		ref := New(seed)
		for _, nk := range [][2]int{{10, 1}, {10, 3}, {125, 3}, {125, 15}, {125, 16}, {40, 16}, {1000, 8}} {
			n, k := nk[0], nk[1]
			got := fast.Sample(n, k)
			want := sampleMapReference(ref, n, k)
			if len(got) != len(want) {
				t.Fatalf("seed %d n=%d k=%d: len %d vs %d", seed, n, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d n=%d k=%d: Sample %v != reference %v", seed, n, k, got, want)
				}
			}
		}
	}
}

func TestSampleNoAllocSmallK(t *testing.T) {
	s := New(3)
	allocs := testing.AllocsPerRun(200, func() {
		_ = s.Sample(125, 3)
	})
	// One allocation: the returned slice. The swap table must stay on the
	// stack.
	if allocs > 1 {
		t.Errorf("Sample(125, 3) allocates %v times per call, want <= 1", allocs)
	}
}

func TestZipfPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"n=0":  func() { NewZipf(0, 1) },
		"n<0":  func() { NewZipf(-3, 1) },
		"s<0":  func() { NewZipf(5, -0.1) },
		"sNaN": func() { NewZipf(5, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewZipf did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestZipfDistribution(t *testing.T) {
	const n, draws = 16, 200_000
	z := NewZipf(n, 1.0)
	s := New(9)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := z.Draw(s)
		if k < 0 || k >= n {
			t.Fatalf("Draw returned %d, outside [0,%d)", k, n)
		}
		counts[k]++
	}
	// Monotone popularity: rank 0 strictly hottest, tail reached.
	if counts[0] <= counts[1] || counts[n-1] == 0 {
		t.Fatalf("counts not Zipf-shaped: %v", counts)
	}
	// Rank 0 should hold ~1/H_16 ≈ 29.6% of the mass at s=1.
	frac := float64(counts[0]) / draws
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("rank 0 frequency %.3f outside [0.27, 0.33]", frac)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	const n, draws = 8, 80_000
	z := NewZipf(n, 0)
	s := New(4)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Draw(s)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if d := math.Abs(float64(c)-want) / want; d > 0.05 {
			t.Errorf("s=0 rank %d count %d deviates %.1f%% from uniform %v", k, c, 100*d, want)
		}
	}
}

func TestZipfDeterministic(t *testing.T) {
	z := NewZipf(32, 1.2)
	a, b := New(11), New(11)
	for i := 0; i < 1000; i++ {
		if x, y := z.Draw(a), z.Draw(b); x != y {
			t.Fatalf("draw %d: %d != %d with identical streams", i, x, y)
		}
	}
}

func TestZipfDrawNoAlloc(t *testing.T) {
	z := NewZipf(1024, 1.0)
	s := New(2)
	if allocs := testing.AllocsPerRun(200, func() { _ = z.Draw(s) }); allocs != 0 {
		t.Errorf("Draw allocates %v times per call, want 0", allocs)
	}
}
