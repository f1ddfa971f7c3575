// Package stats provides the small statistics toolkit used by the
// simulation and benchmark harnesses: scalar summaries, per-round series,
// network counters, and plain-text table rendering in the style of the
// paper's gnuplot figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the usual scalar statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, x := range sorted {
		sum += x
		sumSq += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0 // guard against floating point cancellation
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Stddev: math.Sqrt(variance),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    Percentile(sorted, 0.50),
		P90:    Percentile(sorted, 0.90),
		P99:    Percentile(sorted, 0.99),
	}
}

// Percentile returns the p-th percentile (0 <= p <= 1) of an ascending
// sorted sample using linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Series is a named sequence of (x, y) points — one curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends one point to the series.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// YAt returns the y value at the first point whose x equals x, and whether
// such a point exists.
func (s *Series) YAt(x float64) (float64, bool) {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// Table renders one or more series that share an x axis as a plain-text
// table: a header row, then one row per x with one column per series. The
// layout matches the data files behind the paper's gnuplot figures, so the
// output of each experiment can be diffed and eyeballed directly.
type Table struct {
	Title   string
	XLabel  string
	YFormat string // printf verb for y cells, default "%g"
	Series  []*Series
}

// Render writes the table to a string.
func (t *Table) Render() string {
	yf := t.YFormat
	if yf == "" {
		yf = "%g"
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	xl := t.XLabel
	if xl == "" {
		xl = "x"
	}
	fmt.Fprintf(&b, "%-12s", xl)
	for _, s := range t.Series {
		fmt.Fprintf(&b, " %16s", s.Name)
	}
	b.WriteByte('\n')

	// Collect the union of x values in ascending order.
	xset := map[float64]bool{}
	for _, s := range t.Series {
		for _, x := range s.X {
			xset[x] = true
		}
	}
	xs := make([]float64, 0, len(xset))
	for x := range xset {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	for _, x := range xs {
		fmt.Fprintf(&b, "%-12g", x)
		for _, s := range t.Series {
			if y, ok := s.YAt(x); ok {
				fmt.Fprintf(&b, " %16s", fmt.Sprintf(yf, y))
			} else {
				fmt.Fprintf(&b, " %16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
