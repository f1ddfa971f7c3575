// Package rng provides deterministic, splittable pseudo-random streams.
//
// Every stochastic component in this repository (view truncation, gossip
// target selection, loss injection, crash schedules, ...) draws from an
// *rng.Source so that a whole experiment is reproducible bit-for-bit from a
// single root seed. Sources are split hierarchically: the experiment owns a
// root, each simulated process derives a child stream, and each child is
// independent of its siblings.
//
// The generator is SplitMix64 (Steele, Lea, Flood; "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014). It is tiny, passes BigCrush
// when used as specified, and — unlike math/rand — supports cheap splitting
// without sharing state between streams.
package rng

import (
	"math"
	"math/bits"
)

// golden is the 64-bit golden-ratio increment used by SplitMix64.
const golden = 0x9e3779b97f4a7c15

// Source is a deterministic pseudo-random stream. The zero value is a valid
// stream seeded with 0; use New or Split for anything else.
//
// Source is NOT safe for concurrent use; give each goroutine its own split.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// mix64 is the SplitMix64 output function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// State returns the stream's current position: two sources in the same
// state draw the same values from then on.
func (s *Source) State() uint64 { return s.state }

// Split derives an independent child stream. The child's sequence does not
// overlap the parent's continued sequence for any practical stream length.
func (s *Source) Split() *Source {
	// Drawing two words and remixing them decorrelates the child from both
	// the parent's position and its seed.
	a := s.Uint64()
	b := s.Uint64()
	return &Source{state: mix64(a ^ (b * golden))}
}

// SplitInto derives an independent child stream in place, drawing from
// the parent exactly as Split does but writing the child into
// caller-provided storage — the allocation-free form used when child
// sources live inside pooled blocks.
func (s *Source) SplitInto(dst *Source) {
	a := s.Uint64()
	b := s.Uint64()
	dst.state = mix64(a ^ (b * golden))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	x := s.Uint64()
	hi, lo := bits.Mul64(x, uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n)
		for lo < thresh {
			x = s.Uint64()
			hi, lo = bits.Mul64(x, uint64(n))
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	}
	return s.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// smallSampleK bounds the map-free Sample fast path: at most one swap
// entry is recorded per draw, so a fixed array of smallSampleK pairs
// suffices.
const smallSampleK = 16

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. If k >= n it returns a permutation of all n indices.
//
// Both paths run the same partial Fisher–Yates over a lazily materialized
// array and consume identical Intn draws, so the returned indices do not
// depend on which bookkeeping structure is used. For the small k of gossip
// fanouts the swap table lives in a fixed stack array, keeping the hot
// emission path at a single allocation (the result slice).
func (s *Source) Sample(n, k int) []int {
	if k >= n {
		return s.Perm(n)
	}
	if k <= 0 {
		return nil
	}
	return s.SampleAppend(make([]int, 0, k), n, k)
}

// SampleAppend appends the indices Sample(n, k) would return to dst,
// allocation-free when dst has capacity. It consumes exactly the same Intn
// draws as Sample, so switching a caller between the two cannot perturb
// deterministic schedules.
func (s *Source) SampleAppend(dst []int, n, k int) []int {
	if k >= n {
		// Inline Fisher–Yates permutation (Perm's draw order).
		base := len(dst)
		for i := 0; i < n; i++ {
			j := s.Intn(i + 1)
			dst = append(dst, 0)
			dst[base+i] = dst[base+j]
			dst[base+j] = i
		}
		return dst
	}
	if k <= 0 {
		return dst
	}
	base := len(dst)
	for i := 0; i < k; i++ {
		dst = append(dst, 0)
	}
	out := dst[base : base+k]
	if k <= smallSampleK {
		// Map-free fast path: linear scans over at most k recorded swaps.
		var keys [smallSampleK]int
		var vals [smallSampleK]int
		used := 0
		lookup := func(x int) (int, bool) {
			for p := 0; p < used; p++ {
				if keys[p] == x {
					return vals[p], true
				}
			}
			return 0, false
		}
		for i := 0; i < k; i++ {
			j := i + s.Intn(n-i)
			vj, ok := lookup(j)
			if !ok {
				vj = j
			}
			vi, ok := lookup(i)
			if !ok {
				vi = i
			}
			out[i] = vj
			set := false
			for p := 0; p < used; p++ {
				if keys[p] == j {
					vals[p] = vi
					set = true
					break
				}
			}
			if !set {
				keys[used], vals[used] = j, vi
				used++
			}
		}
		return dst
	}
	chosen := make(map[int]int, 2*k)
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
	return dst
}

// Zipf samples ranks from a bounded Zipf (power-law) distribution:
// rank k in [0, n) is drawn with probability proportional to 1/(k+1)^s.
// It models the skewed topic popularity of large pub/sub deployments —
// many topics, few hot — with s = 0 degenerating to uniform.
//
// The sampler precomputes the normalized CDF once and inverts it with a
// binary search per draw, so Draw costs one Float64 plus O(log n) and
// allocates nothing. Like the other samplers here, Zipf owns no stream:
// the caller passes the Source, keeping the draw-per-decision discipline
// visible at the call site.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n ranks with exponent s. It panics when
// n <= 0 or s is negative or NaN, mirroring Intn's contract.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf called with n <= 0")
	}
	if s < 0 || math.IsNaN(s) {
		panic("rng: NewZipf called with negative or NaN exponent")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1 // guard against rounding leaving the tail unreachable
	return &Zipf{cdf: cdf}
}

// Draw returns the next rank in [0, n), consuming one Float64 from r.
func (z *Zipf) Draw(r *Source) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
