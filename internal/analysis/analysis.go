// Package analysis implements the paper's stochastic evaluation (§4): the
// infection Markov chain of equations 1–3 and the partitioning
// probabilities of equations 4–5. Combinatorial terms are computed in log
// space (math.Lgamma) so the vanishing probabilities of Fig. 4 (~1e-14)
// and the huge round counts of eq. 5 (~1e12) do not underflow.
package analysis

import (
	"errors"
	"fmt"
	"math"
)

// Params are the system parameters of the analysis (§4.1). The paper fixes
// Epsilon=0.05 and Tau=0.01 for all computations and simulations.
type Params struct {
	// N is the system size |Π| = n.
	N int
	// Fanout is F, the gossip fanout.
	Fanout int
	// Epsilon is ε, the per-message loss probability bound.
	Epsilon float64
	// Tau is τ = f/n, the per-run crash probability bound.
	Tau float64
}

// DefaultParams returns the paper's standard parameters for system size n:
// F=3, ε=0.05, τ=0.01.
func DefaultParams(n int) Params {
	return Params{N: n, Fanout: 3, Epsilon: 0.05, Tau: 0.01}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.N < 2 {
		return errors.New("analysis: need at least two processes")
	}
	if p.Fanout < 1 || p.Fanout > p.N-1 {
		return fmt.Errorf("analysis: fanout %d out of range [1, %d]", p.Fanout, p.N-1)
	}
	if p.Epsilon < 0 || p.Epsilon >= 1 {
		return fmt.Errorf("analysis: epsilon %v out of [0, 1)", p.Epsilon)
	}
	if p.Tau < 0 || p.Tau >= 1 {
		return fmt.Errorf("analysis: tau %v out of [0, 1)", p.Tau)
	}
	return nil
}

// InfectProb returns p, equation 1: the lower bound on the probability
// that a given susceptible process is infected by a given gossip message,
//
//	p = (F / (n-1)) (1-ε)(1-τ).
//
// As the paper stresses, p does not depend on the view size l — the
// uniform-view assumption cancels it.
func (p Params) InfectProb() float64 {
	return float64(p.Fanout) / float64(p.N-1) * (1 - p.Epsilon) * (1 - p.Tau)
}

// Chain is the infection Markov chain of equation 2 with states 1..n
// (number of infected processes).
type Chain struct {
	params Params
	lnFact []float64 // lnFact[k] = ln k!
	lnQ    float64   // ln q, q = 1 - p
}

// NewChain builds the chain for the given parameters.
func NewChain(params Params) (*Chain, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	c := &Chain{params: params, lnFact: lnFactTable(params.N)}
	q := 1 - params.InfectProb()
	if q <= 0 {
		// p == 1: every gossip infects its target with certainty.
		c.lnQ = math.Inf(-1)
	} else {
		c.lnQ = math.Log(q)
	}
	return c, nil
}

// lnFactTable precomputes ln k! for k in [0, n].
func lnFactTable(n int) []float64 {
	t := make([]float64, n+1)
	for k := 2; k <= n; k++ {
		lg, _ := math.Lgamma(float64(k) + 1)
		t[k] = lg
	}
	return t
}

// lnChoose returns ln C(n, k) from the factorial table.
func (c *Chain) lnChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return c.lnFact[n] - c.lnFact[k] - c.lnFact[n-k]
}

// TransitionProb returns p_ij, equation 2: the probability that exactly j
// processes are infected after a round that starts with i infected.
func (c *Chain) TransitionProb(i, j int) float64 {
	n := c.params.N
	if i < 1 || i > n || j < i || j > n {
		return 0
	}
	// 1 - q^i and its logs, computed stably.
	lnQi := float64(i) * c.lnQ // ln q^i
	var lnOneMinusQi float64
	switch {
	case math.IsInf(lnQi, -1):
		lnOneMinusQi = 0 // q^i = 0, so 1-q^i = 1
	default:
		om := -math.Expm1(lnQi) // 1 - q^i
		if om <= 0 {
			// p == 0: nobody is ever infected; staying put has prob 1.
			if j == i {
				return 1
			}
			return 0
		}
		lnOneMinusQi = math.Log(om)
	}
	// q^{i(n-j)} = (q^i)^{n-j}, and lnQi is already i·ln q.
	lnP := c.lnChoose(n-i, j-i) +
		float64(j-i)*lnOneMinusQi +
		float64(n-j)*lnQi
	// (n-j)*lnQi with lnQi = -Inf and n == j gives 0 * -Inf = NaN; that
	// case means "all remaining processes certainly infected".
	if math.IsNaN(lnP) {
		lnP = c.lnChoose(n-i, j-i) + float64(j-i)*lnOneMinusQi
	}
	return math.Exp(lnP)
}

// Distribution returns the state distributions P(s_r = j) for rounds
// r = 0..rounds (equation 3). The returned slice has rounds+1 entries;
// each entry is indexed by j in [0, n] with index 0 unused.
func (c *Chain) Distribution(rounds int) [][]float64 {
	n := c.params.N
	dist := make([][]float64, rounds+1)
	cur := make([]float64, n+1)
	cur[1] = 1 // s_0 = 1
	dist[0] = append([]float64(nil), cur...)
	for r := 1; r <= rounds; r++ {
		next := make([]float64, n+1)
		for i := 1; i <= n; i++ {
			pi := cur[i]
			if pi < 1e-300 {
				continue
			}
			for j := i; j <= n; j++ {
				if t := c.TransitionProb(i, j); t > 0 {
					next[j] += pi * t
				}
			}
		}
		cur = next
		dist[r] = append([]float64(nil), cur...)
	}
	return dist
}

// ExpectedInfected returns E[s_r] for rounds r = 0..rounds using the exact
// chain — the curves of Fig. 2 and Fig. 3(a).
func (c *Chain) ExpectedInfected(rounds int) []float64 {
	dist := c.Distribution(rounds)
	out := make([]float64, rounds+1)
	for r, d := range dist {
		e := 0.0
		for j := 1; j < len(d); j++ {
			e += float64(j) * d[j]
		}
		out[r] = e
	}
	return out
}

// RoundsToInfect returns the (fractionally interpolated) number of rounds
// until the expected number of infected processes reaches frac*n — the
// y axis of Fig. 3(b) with frac = 0.99. maxRounds bounds the search; if
// the target is not reached, maxRounds and false are returned.
func (c *Chain) RoundsToInfect(frac float64, maxRounds int) (float64, bool) {
	target := frac * float64(c.params.N)
	exp := c.ExpectedInfected(maxRounds)
	for r := 1; r <= maxRounds; r++ {
		if exp[r] >= target {
			prev := exp[r-1]
			if exp[r] == prev {
				return float64(r), true
			}
			return float64(r-1) + (target-prev)/(exp[r]-prev), true
		}
	}
	return float64(maxRounds), false
}

// lnChooseFloat computes ln C(n, k) without a table (for the partition
// formulas where n varies).
func lnChooseFloat(n, k int) float64 {
	if k < 0 || n < 0 || k > n {
		return math.Inf(-1)
	}
	a, _ := math.Lgamma(float64(n) + 1)
	b, _ := math.Lgamma(float64(k) + 1)
	c, _ := math.Lgamma(float64(n-k) + 1)
	return a - b - c
}

// PartitionProbability returns Ψ(i, n, l), equation 4: an upper bound on
// the probability that a partition of size i forms in a system of n
// processes with uniform views of size l. It is zero when the subset (or
// its complement) is too small to fill its views internally.
func PartitionProbability(i, n, l int) float64 {
	if i < l+1 || i > n || n-i-1 < l {
		return 0
	}
	lnPsi := lnChooseFloat(n, i) +
		float64(i)*(lnChooseFloat(i-1, l)-lnChooseFloat(n-1, l)) +
		float64(n-i)*(lnChooseFloat(n-i-1, l)-lnChooseFloat(n-1, l))
	return math.Exp(lnPsi)
}

// PartitionSum returns Σ_{i=l+1}^{n/2} Ψ(i, n, l) — the per-round
// partition probability used by equation 5.
func PartitionSum(n, l int) float64 {
	sum := 0.0
	for i := l + 1; i <= n/2; i++ {
		sum += PartitionProbability(i, n, l)
	}
	return sum
}

// NoPartitionProb returns φ(n, l, r), equation 5: the probability that no
// partition occurs during r rounds, using the paper's linear
// approximation φ ≈ 1 - r·Σψ (clamped to [0, 1]).
func NoPartitionProb(n, l int, r float64) float64 {
	phi := 1 - r*PartitionSum(n, l)
	if phi < 0 {
		return 0
	}
	return phi
}

// RoundsToPartition returns the number of rounds after which the system
// has partitioned with the given probability (inverting equation 5).
// The paper's example: n=50, l=3, probability 0.9 → ≈10^12 rounds.
func RoundsToPartition(n, l int, prob float64) float64 {
	sum := PartitionSum(n, l)
	if sum <= 0 {
		return math.Inf(1)
	}
	return prob / sum
}
