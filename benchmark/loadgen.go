package main

import (
	"math"
	"sort"
)

// gen is the load generator's own random stream (splitmix64). The
// benchmark draws every input from it — publish origins, topics, churn
// victims, and the seeds handed to the simulators — so the program under
// test only ever sees generated inputs, and one -seed fixes them all.
type gen struct{ s uint64 }

func newGen(seed uint64, stream string) *gen {
	g := &gen{s: seed}
	for _, b := range []byte(stream) { // one independent stream per purpose
		g.s = g.s*0x100000001B3 ^ uint64(b)
	}
	g.next()
	return g
}

func (g *gen) next() uint64 {
	g.s += 0x9E3779B97F4A7C15
	z := g.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (g *gen) intn(n int) int { return int(g.next() % uint64(n)) }

func (g *gen) float() float64 { return float64(g.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^s by inverting the CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(g *gen) int {
	k := sort.SearchFloat64s(z.cdf, g.float())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}
