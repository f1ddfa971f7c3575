package analysis

import (
	"math"
	"testing"
)

func TestParamsValidate(t *testing.T) {
	t.Parallel()
	if err := DefaultParams(125).Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	cases := []Params{
		{N: 1, Fanout: 1},
		{N: 10, Fanout: 0},
		{N: 10, Fanout: 10},
		{N: 10, Fanout: 3, Epsilon: 1},
		{N: 10, Fanout: 3, Epsilon: -0.1},
		{N: 10, Fanout: 3, Tau: 1},
		{N: 10, Fanout: 3, Tau: -0.1},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("params %+v validated", c)
		}
	}
}

func TestInfectProbEquation1(t *testing.T) {
	t.Parallel()
	// p = F/(n-1) (1-ε)(1-τ); for the paper's defaults at n=125:
	p := DefaultParams(125).InfectProb()
	want := 3.0 / 124.0 * 0.95 * 0.99
	if math.Abs(p-want) > 1e-15 {
		t.Fatalf("p = %v, want %v", p, want)
	}
}

func TestInfectProbIndependentOfViewSize(t *testing.T) {
	t.Parallel()
	// Equation 1's whole point: p depends on F, n, ε, τ only. Params has no
	// l at all — assert the derivation numerically by rebuilding the
	// unsimplified form for several l and comparing.
	params := DefaultParams(125)
	p := params.InfectProb()
	n := float64(params.N)
	for _, l := range []int{5, 15, 35} {
		// (l/(n-1)) * (F/l) * (1-ε)(1-τ)
		unsimplified := float64(l) / (n - 1) * float64(params.Fanout) / float64(l) * 0.95 * 0.99
		if math.Abs(unsimplified-p) > 1e-15 {
			t.Fatalf("l=%d: unsimplified %v != p %v", l, unsimplified, p)
		}
	}
}

func TestTransitionProbRowSumsToOne(t *testing.T) {
	t.Parallel()
	chain, err := NewChain(DefaultParams(60))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2, 10, 30, 59, 60} {
		sum := 0.0
		for j := i; j <= 60; j++ {
			p := chain.TransitionProb(i, j)
			if p < 0 || p > 1 {
				t.Fatalf("p_%d%d = %v out of [0,1]", i, j, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
}

func TestTransitionProbShrinkImpossible(t *testing.T) {
	t.Parallel()
	chain, err := NewChain(DefaultParams(30))
	if err != nil {
		t.Fatal(err)
	}
	if p := chain.TransitionProb(10, 9); p != 0 {
		t.Fatalf("p(10→9) = %v, want 0", p)
	}
	if p := chain.TransitionProb(0, 5); p != 0 {
		t.Fatalf("p(0→5) = %v, want 0", p)
	}
	if p := chain.TransitionProb(5, 31); p != 0 {
		t.Fatalf("p(5→31) = %v, want 0", p)
	}
}

func TestTransitionProbDegenerateP(t *testing.T) {
	t.Parallel()
	// ε=1 is invalid, but p=0 also arises from fanout 0 being invalid — so
	// force q=1 by a custom chain: epsilon just under 1 gives tiny p; the
	// chain must still be a valid distribution.
	params := Params{N: 20, Fanout: 1, Epsilon: 0.999999, Tau: 0}
	chain, err := NewChain(params)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for j := 5; j <= 20; j++ {
		sum += chain.TransitionProb(5, j)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("row sums to %v", sum)
	}
}

func TestDistributionIsProbability(t *testing.T) {
	t.Parallel()
	chain, err := NewChain(DefaultParams(50))
	if err != nil {
		t.Fatal(err)
	}
	dist := chain.Distribution(8)
	if len(dist) != 9 {
		t.Fatalf("got %d rounds", len(dist))
	}
	if dist[0][1] != 1 {
		t.Fatalf("P(s_0=1) = %v", dist[0][1])
	}
	for r, d := range dist {
		sum := 0.0
		for j := 1; j < len(d); j++ {
			if d[j] < 0 {
				t.Fatalf("round %d: P(s=%d) = %v < 0", r, j, d[j])
			}
			sum += d[j]
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("round %d distribution sums to %v", r, sum)
		}
	}
}

func TestExpectedInfectedMonotone(t *testing.T) {
	t.Parallel()
	chain, err := NewChain(DefaultParams(125))
	if err != nil {
		t.Fatal(err)
	}
	exp := chain.ExpectedInfected(10)
	if exp[0] != 1 {
		t.Fatalf("E[s_0] = %v", exp[0])
	}
	for r := 1; r < len(exp); r++ {
		if exp[r] < exp[r-1]-1e-9 {
			t.Fatalf("expectation decreased at round %d: %v -> %v", r, exp[r-1], exp[r])
		}
	}
	// The paper's Fig. 2 (F=3): essentially everyone infected by round 10.
	if exp[10] < 0.99*125 {
		t.Errorf("E[s_10] = %v, want ≥ 123.75", exp[10])
	}
	// And nearly nobody by round 1 (1 + ~3 gossips).
	if exp[1] > 5 {
		t.Errorf("E[s_1] = %v, want ≤ 5", exp[1])
	}
}

func TestAppendixARecursionTracksChain(t *testing.T) {
	t.Parallel()
	chain, err := NewChain(DefaultParams(125))
	if err != nil {
		t.Fatal(err)
	}
	exact := chain.ExpectedInfected(10)
	approx := expectedInfectedApprox(chain, 10)
	for r := range exact {
		diff := math.Abs(exact[r] - approx[r])
		if diff > 0.15*125 {
			t.Errorf("round %d: exact %v vs approx %v", r, exact[r], approx[r])
		}
	}
	// Both must saturate at n.
	if approx[10] < 124 || approx[10] > 125 {
		t.Errorf("approx[10] = %v", approx[10])
	}
}

func TestFanoutSpeedsInfection(t *testing.T) {
	t.Parallel()
	// Fig. 2's shape: higher F ⇒ more infected at every (early) round, with
	// diminishing returns.
	var at4 []float64 // E[s_4] for F=3..6
	for _, f := range []int{3, 4, 5, 6} {
		params := DefaultParams(125)
		params.Fanout = f
		chain, err := NewChain(params)
		if err != nil {
			t.Fatal(err)
		}
		at4 = append(at4, chain.ExpectedInfected(4)[4])
	}
	for i := 1; i < len(at4); i++ {
		if at4[i] <= at4[i-1] {
			t.Fatalf("E[s_4] not increasing in F: %v", at4)
		}
	}
	// Diminishing returns: the F=3→4 gain exceeds the F=5→6 gain.
	if at4[1]-at4[0] <= at4[3]-at4[2] {
		t.Errorf("gains not diminishing: %v", at4)
	}
}

func TestRoundsToInfectLogarithmicInN(t *testing.T) {
	t.Parallel()
	// Fig. 3(b): rounds to 99% grows slowly (log) with n; the paper reads
	// ≈5.3 at n=100 and ≈6.8 at n=1000.
	get := func(n int) float64 {
		chain, err := NewChain(DefaultParams(n))
		if err != nil {
			t.Fatal(err)
		}
		r, ok := chain.RoundsToInfect(0.99, 30)
		if !ok {
			t.Fatalf("n=%d: not infected in 30 rounds", n)
		}
		return r
	}
	r100, r1000 := get(100), get(1000)
	if r100 < 4 || r100 > 7 {
		t.Errorf("rounds(n=100) = %v, want ≈5.3", r100)
	}
	if r1000 < 5.5 || r1000 > 8.5 {
		t.Errorf("rounds(n=1000) = %v, want ≈6.8", r1000)
	}
	if r1000 <= r100 {
		t.Errorf("rounds not increasing: %v vs %v", r100, r1000)
	}
	if r1000-r100 > 3 {
		t.Errorf("growth %v too steep for a logarithmic curve", r1000-r100)
	}
}

func TestRoundsToInfectUnreachable(t *testing.T) {
	t.Parallel()
	params := Params{N: 100, Fanout: 1, Epsilon: 0.999999}
	chain, err := NewChain(params)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := chain.RoundsToInfect(0.99, 5); ok {
		t.Fatalf("reported success %v with a dead network", r)
	}
}

func TestPartitionProbabilityZeroCases(t *testing.T) {
	t.Parallel()
	if p := PartitionProbability(3, 50, 3); p != 0 {
		t.Errorf("Ψ(i≤l) = %v, want 0", p)
	}
	if p := PartitionProbability(47, 50, 3); p != 0 {
		t.Errorf("Ψ with tiny complement = %v, want 0", p)
	}
	if p := PartitionProbability(60, 50, 3); p != 0 {
		t.Errorf("Ψ(i>n) = %v, want 0", p)
	}
}

func TestPartitionProbabilityMagnitude(t *testing.T) {
	t.Parallel()
	// The printed equation 4 yields Ψ(4,50,3) ≈ 1.21e-17 (verified by hand:
	// C(50,4)·(1/18424)^4·(14190/18424)^46).
	p := PartitionProbability(4, 50, 3)
	if p < 1e-18 || p > 1e-16 {
		t.Errorf("Ψ(4,50,3) = %v, want ≈1.2e-17", p)
	}
	// The loose variant reproduces the paper's Figure 4 magnitude (~3e-14
	// at the peak; the variant computes ≈7e-14).
	pl := partitionProbabilityLoose(4, 50, 3)
	if pl < 1e-15 || pl > 1e-12 {
		t.Errorf("loose Ψ(4,50,3) = %v, want ~1e-13..1e-14", pl)
	}
	if pl <= p {
		t.Errorf("loose bound %v not looser than printed bound %v", pl, p)
	}
}

func TestPartitionProbabilityLooseShape(t *testing.T) {
	t.Parallel()
	// Same monotonicity as the printed bound.
	for i := 5; i <= 20; i++ {
		p50 := partitionProbabilityLoose(i, 50, 3)
		p125 := partitionProbabilityLoose(i, 125, 3)
		if p50 < p125 {
			t.Errorf("i=%d: loose Ψ not decreasing in n", i)
		}
	}
	if partitionProbabilityLoose(3, 50, 3) != 0 {
		t.Error("loose Ψ(i≤l) != 0")
	}
}

func TestPartitionProbabilityMonotoneInNAndL(t *testing.T) {
	t.Parallel()
	// "Ψ(i,n,l) monotonically decreases when increasing n or l."
	for i := 5; i <= 20; i++ {
		p50 := PartitionProbability(i, 50, 3)
		p75 := PartitionProbability(i, 75, 3)
		p125 := PartitionProbability(i, 125, 3)
		if p50 < p75 || p75 < p125 {
			t.Errorf("i=%d: Ψ not decreasing in n: %v %v %v", i, p50, p75, p125)
		}
	}
	for i := 6; i <= 20; i++ {
		if PartitionProbability(i, 75, 3) < PartitionProbability(i, 75, 5) {
			t.Errorf("i=%d: Ψ not decreasing in l", i)
		}
	}
}

func TestPartitionSumDominatedBySmallPartitions(t *testing.T) {
	t.Parallel()
	sum := PartitionSum(50, 3)
	first := PartitionProbability(4, 50, 3)
	if sum < first {
		t.Fatalf("sum %v smaller than a term %v", sum, first)
	}
	if sum > 10*first {
		t.Errorf("sum %v not dominated by the smallest partition term %v", sum, first)
	}
}

func TestEquation5RoundsToPartition(t *testing.T) {
	t.Parallel()
	// "It takes ≈ 10^12 rounds to end up with a partitioned system with a
	// probability of 0.9 with n = 50 and l = 3." With the printed equation 4
	// the count is even larger (≈7e16); the qualitative claim — partitions
	// take astronomically many rounds — is what the test pins down.
	r := RoundsToPartition(50, 3, 0.9)
	if r < 1e11 || r > 1e19 {
		t.Errorf("rounds to partition = %.3e, want astronomically large (≥1e11)", r)
	}
	// φ after that many rounds is ≈ 0.1.
	phi := NoPartitionProb(50, 3, r)
	if math.Abs(phi-0.1) > 0.01 {
		t.Errorf("φ = %v, want ≈0.1", phi)
	}
}

func TestNoPartitionProbClamped(t *testing.T) {
	t.Parallel()
	if phi := NoPartitionProb(50, 3, 1e30); phi != 0 {
		t.Errorf("φ = %v, want clamp to 0", phi)
	}
	if phi := NoPartitionProb(50, 3, 0); phi != 1 {
		t.Errorf("φ(r=0) = %v, want 1", phi)
	}
}

func TestRoundsToPartitionInfiniteWhenImpossible(t *testing.T) {
	t.Parallel()
	// l so large no partition can form (n/2 < l+1).
	if r := RoundsToPartition(10, 6, 0.9); !math.IsInf(r, 1) {
		t.Errorf("rounds = %v, want +Inf", r)
	}
}

func TestFigureTables(t *testing.T) {
	t.Parallel()
	f2, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Series) != 4 {
		t.Errorf("Fig.2 has %d series", len(f2.Series))
	}
	f3a, err := Figure3a()
	if err != nil {
		t.Fatal(err)
	}
	if len(f3a.Series) != 8 {
		t.Errorf("Fig.3a has %d series", len(f3a.Series))
	}
	f3b, err := Figure3b()
	if err != nil {
		t.Fatal(err)
	}
	if len(f3b.Series[0].X) != 10 {
		t.Errorf("Fig.3b has %d points", len(f3b.Series[0].X))
	}
	f4 := Figure4()
	if len(f4.Series) != 3 {
		t.Errorf("Fig.4 has %d series", len(f4.Series))
	}
	eq5 := Equation5Table(50, 3)
	if len(eq5.Series[0].X) != 4 {
		t.Errorf("Eq.5 table has %d points", len(eq5.Series[0].X))
	}
	// Tables must render.
	for _, tbl := range []interface{ Render() string }{f2, f3a, f3b, f4, eq5} {
		if tbl.Render() == "" {
			t.Error("empty render")
		}
	}
}

func BenchmarkExpectedInfectedN125(b *testing.B) {
	chain, err := NewChain(DefaultParams(125))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = chain.ExpectedInfected(10)
	}
}

func BenchmarkPartitionSum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = PartitionSum(125, 3)
	}
}

func TestLossSensitivity(t *testing.T) {
	t.Parallel()
	tbl, err := LossSensitivity(125, 3, 0.99, []float64{0, 0.05, 0.2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Series[0]
	if len(s.X) != 4 {
		t.Fatalf("points = %d", len(s.X))
	}
	// Rounds must increase with loss, and gracefully: even 50% loss only
	// costs a few extra rounds (gossip redundancy).
	prev := -1.0
	for i := 0; i < len(s.X); i++ {
		if s.Y[i] < prev {
			t.Fatalf("rounds decreased with more loss: %v", s.Y)
		}
		prev = s.Y[i]
	}
	clean, _ := s.YAt(0)
	half, _ := s.YAt(0.5)
	if half-clean > 8 {
		t.Errorf("50%% loss costs %v extra rounds; gossip should degrade gracefully", half-clean)
	}
	if _, err := LossSensitivity(125, 3, 0.99, []float64{0.999999}); err == nil {
		t.Error("dead network tabulated successfully")
	}
}

func TestMessageOverhead(t *testing.T) {
	t.Parallel()
	chain, err := NewChain(DefaultParams(125))
	if err != nil {
		t.Fatal(err)
	}
	msgs, ratio, ok := messageOverhead(chain, 0.99, 30)
	if !ok {
		t.Fatal("overhead not computable")
	}
	// ≈ 125 × 3 × 5.9 ≈ 2200 messages; ratio ≈ 18x the n-1 minimum.
	if msgs < 1500 || msgs > 3500 {
		t.Errorf("messages = %v, want ≈2200", msgs)
	}
	if ratio < 10 || ratio > 30 {
		t.Errorf("redundancy ratio = %v, want ≈18", ratio)
	}
	dead, err := NewChain(Params{N: 100, Fanout: 1, Epsilon: 0.999999})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := messageOverhead(dead, 0.99, 5); ok {
		t.Error("dead network produced an overhead figure")
	}
}

// expectedInfectedApprox is the Appendix A approximation the chain is held
// to: the recursion E(j(i)) = n - (n-i) q^i applied t times, rounding at
// each step as the appendix prescribes.
func expectedInfectedApprox(c *Chain, rounds int) []float64 {
	n := float64(c.params.N)
	q := 1 - c.params.InfectProb()
	out := make([]float64, rounds+1)
	cur := 1.0
	out[0] = cur
	for r := 1; r <= rounds; r++ {
		cur = n - (n-cur)*math.Pow(q, cur)
		cur = math.Round(cur)
		out[r] = cur
	}
	return out
}

// partitionProbabilityLoose is the looser variant of equation 4 obtained
// by letting each view be drawn from the whole subset rather than the
// subset minus the owner (C(i,l) and C(n-i,l) in place of C(i-1,l) and
// C(n-i-1,l)). The printed equation yields Ψ(4,50,3) ≈ 1.2e-17, while the
// paper's Figure 4 peaks near 3e-14, which this variant reproduces
// (≈7e-14). Both bounds share the same shape.
func partitionProbabilityLoose(i, n, l int) float64 {
	if i < l+1 || i > n || n-i < l {
		return 0
	}
	lnPsi := lnChooseFloat(n, i) +
		float64(i)*(lnChooseFloat(i, l)-lnChooseFloat(n-1, l)) +
		float64(n-i)*(lnChooseFloat(n-i, l)-lnChooseFloat(n-1, l))
	return math.Exp(lnPsi)
}

// messageOverhead estimates the gossip messages the whole system sends
// while a broadcast reaches frac of n processes: n·F messages a round times
// the expected rounds, and their ratio to the n-1 point-to-point minimum
// (§2.2, [19]).
func messageOverhead(c *Chain, frac float64, maxRounds int) (messages float64, ratio float64, ok bool) {
	rounds, ok := c.RoundsToInfect(frac, maxRounds)
	if !ok {
		return 0, 0, false
	}
	messages = float64(c.params.N) * float64(c.params.Fanout) * rounds
	return messages, messages / float64(c.params.N-1), true
}
