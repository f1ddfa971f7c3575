package main

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// median returns the middle of xs (mean of the two middles for an even
// count) without reordering the caller's slice. It is 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, 0.5)
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// highestPercentile returns the highest of 99, 95, 90, 75 that leaves at
// least minBeyond of n samples beyond it, or 50 when none does.
func highestPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile (0 < p < 100) of xs, interpolated
// as stats.Percentile does. It refuses a percentile that
// fewer than minBeyond samples lie beyond: a p99 read off 50 samples is
// the maximum under another name.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p > 50 && float64(n)*(100-p)/100 < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it", p, n, minBeyond)
	}
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, p/100), nil
}

// latencyHist counts simulated delivery latencies in whole gossip periods:
// bucket k holds the deliveries that happened during the k-th period after
// the publish (k ≥ 1). The simulators only expose delivery counts between
// periods, so that is the resolution there is.
type latencyHist struct {
	buckets []uint64
	total   uint64
}

func (h *latencyHist) add(period int, n uint64) {
	if n == 0 {
		return
	}
	for len(h.buckets) <= period {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[period] += n
	h.total += n
}

// percentileMs returns the p-th percentile in simulated milliseconds,
// spreading each bucket's deliveries evenly over its period: a delivery in
// bucket k took between (k-1) and k periods. The interpolation makes the
// figure move when the infection curve moves inside a period, and keeps it
// an exact function of the counts, so it repeats for one seed.
func (h *latencyHist) percentileMs(p float64, periodMs float64) (float64, error) {
	if p > 50 && float64(h.total)*(100-p)/100 < minBeyond {
		return 0, fmt.Errorf("p%g of %d deliveries has fewer than %d beyond it", p, h.total, minBeyond)
	}
	if h.total == 0 {
		return 0, fmt.Errorf("p%g of no deliveries", p)
	}
	rank := p / 100 * float64(h.total)
	var cum float64
	for k, n := range h.buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			frac := (rank - cum) / float64(n)
			return (float64(k) - 1 + frac) * periodMs, nil
		}
		cum += float64(n)
	}
	return float64(len(h.buckets)-1) * periodMs, nil
}

// equal reports whether two histograms hold the same counts.
func (h *latencyHist) equal(o *latencyHist) bool {
	if h.total != o.total {
		return false
	}
	n := len(h.buckets)
	if len(o.buckets) > n {
		n = len(o.buckets)
	}
	at := func(b []uint64, i int) uint64 {
		if i < len(b) {
			return b[i]
		}
		return 0
	}
	for i := 0; i < n; i++ {
		if at(h.buckets, i) != at(o.buckets, i) {
			return false
		}
	}
	return true
}
