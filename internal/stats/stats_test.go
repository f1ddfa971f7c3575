package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	t.Parallel()
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 {
		t.Errorf("N = %d, want 5", s.N)
	}
	if s.Mean != 3 {
		t.Errorf("Mean = %v, want 3", s.Mean)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", s.Min, s.Max)
	}
	if s.P50 != 3 {
		t.Errorf("P50 = %v, want 3", s.P50)
	}
	if want := math.Sqrt(2); math.Abs(s.Stddev-want) > 1e-12 {
		t.Errorf("Stddev = %v, want %v", s.Stddev, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	t.Parallel()
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v, want zero value", s)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	t.Parallel()
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Min != 7 || s.Max != 7 || s.P99 != 7 || s.Stddev != 0 {
		t.Errorf("singleton summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	t.Parallel()
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	t.Parallel()
	sorted := []float64{0, 10}
	if got := Percentile(sorted, 0.5); got != 5 {
		t.Errorf("P50 of {0,10} = %v, want 5", got)
	}
	if got := Percentile(sorted, 0); got != 0 {
		t.Errorf("P0 = %v, want 0", got)
	}
	if got := Percentile(sorted, 1); got != 10 {
		t.Errorf("P100 = %v, want 10", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("percentile of empty sample should be NaN")
	}
}

func TestPercentileMonotone(t *testing.T) {
	t.Parallel()
	if err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStddev(t *testing.T) {
	t.Parallel()
	if got := Summarize([]float64{2, 4}).Mean; got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := Summarize([]float64{5, 5, 5}).Stddev; got != 0 {
		t.Errorf("Stddev of constant sample = %v, want 0", got)
	}
}

func TestSeries(t *testing.T) {
	t.Parallel()
	var s Series
	s.Add(1, 10)
	s.Add(2, 20)
	if len(s.X) != 2 || len(s.Y) != 2 {
		t.Fatalf("len = %d/%d, want 2", len(s.X), len(s.Y))
	}
	if y, ok := s.YAt(2); !ok || y != 20 {
		t.Errorf("YAt(2) = %v,%v", y, ok)
	}
	if _, ok := s.YAt(3); ok {
		t.Error("YAt(3) should not exist")
	}
}

func TestTableRender(t *testing.T) {
	t.Parallel()
	a := &Series{Name: "F=3"}
	a.Add(0, 1)
	a.Add(1, 4)
	b := &Series{Name: "F=4"}
	b.Add(0, 1)
	b.Add(2, 9)
	tbl := &Table{Title: "fig", XLabel: "round", Series: []*Series{a, b}}
	out := tbl.Render()
	if !strings.Contains(out, "# fig") {
		t.Errorf("missing title in %q", out)
	}
	if !strings.Contains(out, "F=3") || !strings.Contains(out, "F=4") {
		t.Errorf("missing series names in %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + header + 3 distinct x values
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[4], "-") {
		t.Errorf("row for x=2 should mark missing F=3 value: %q", lines[4])
	}
}

func TestTableRenderEmpty(t *testing.T) {
	t.Parallel()
	tbl := &Table{}
	if out := tbl.Render(); !strings.Contains(out, "x") {
		t.Errorf("empty table render = %q", out)
	}
}

func BenchmarkSummarize(b *testing.B) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 97)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Summarize(xs)
	}
}
