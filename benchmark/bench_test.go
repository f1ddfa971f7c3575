package main

import (
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileSampleGuard(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples has fewer than 10 beyond it and must be refused")
	}
	got, err := percentile(xs, 99)
	if err != nil || math.Abs(got-989.01) > 1e-9 {
		t.Errorf("p99 of 0..999 = %v, %v; want 989.01", got, err)
	}
	if got, err := percentile(xs[:5], 50); err != nil || got != 2 {
		t.Errorf("p50 of 0..4 = %v, %v; want 2", got, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples must be refused")
	}
	for n, want := range map[int]float64{19: 50, 40: 75, 100: 90, 200: 95, 1000: 99} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestLatencyHistInterpolates(t *testing.T) {
	var h latencyHist
	h.add(1, 100) // deliveries during the first period after the publish
	h.add(2, 300)
	h.add(4, 600)
	// rank 500 of 1000 falls 100 deliveries into bucket 4's 600: 3 + 100/600 periods.
	got, err := h.percentileMs(50, 100)
	if want := (3 + 100.0/600) * 100; err != nil || math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %v, %v; want %v", got, err, want)
	}
	got, err = h.percentileMs(99, 100)
	if want := (3 + 590.0/600) * 100; err != nil || math.Abs(got-want) > 1e-9 {
		t.Errorf("p99 = %v, %v; want %v", got, err, want)
	}
	var small latencyHist
	small.add(1, 500)
	if _, err := small.percentileMs(99, 100); err == nil {
		t.Error("p99 of 500 deliveries has 5 beyond it and must be refused")
	}
	var same latencyHist
	same.add(1, 100)
	same.add(2, 300)
	same.add(4, 600)
	same.add(9, 0)
	if !h.equal(&same) || h.equal(&small) {
		t.Error("latencyHist.equal compares counts, ignoring trailing empty buckets")
	}
}

func TestCalibrationNormalisesSlowSlices(t *testing.T) {
	const ref = 0.010
	if got := toRef(2.0, 0.020, 0.020, ref); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("a slice on a box running at half speed: toRef = %v, want 1.0", got)
	}
	if got := toRef(1.0, 0.010, 0.030, ref); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("the bracketing kernels are averaged: toRef = %v, want 0.5", got)
	}
	// Forty equal-work slices; a slow stretch makes 15 of them 1.5× slower,
	// kernel included. The calibrated median must not move; the raw rate does.
	mk := func(slow bool) slice {
		f := 1.0
		if slow {
			f = 1.5
		}
		return slice{wallS: 0.2 * f, cpuS: 0.19 * f, work: 8000, kBefore: ref * f, kAft: ref * f}
	}
	var quiet, noisy []slice
	for i := 0; i < 40; i++ {
		quiet = append(quiet, mk(false))
		noisy = append(noisy, mk(i >= 10 && i < 25))
	}
	q, n := summarize(quiet, ref, true), summarize(noisy, ref, true)
	if math.Abs(q.workPerRefS-n.workPerRefS) > 1e-6 || math.Abs(q.cpuUsPerWork-n.cpuUsPerWork) > 1e-9 {
		t.Errorf("calibrated medians moved with the host: %v vs %v, %v vs %v", q.workPerRefS, n.workPerRefS, q.cpuUsPerWork, n.cpuUsPerWork)
	}
	if math.Abs(q.workPerRefS-40000) > 1e-6 {
		t.Errorf("median over slices = %v proc-rounds per ref-s, want 40000", q.workPerRefS)
	}
	if !(n.workPerWallS < 0.9*q.workPerWallS) {
		t.Errorf("the raw rate should show the slow stretch: %v vs %v", n.workPerWallS, q.workPerWallS)
	}
	// Median over slices, not mean: one wild slice changes nothing.
	quiet[3].wallS *= 20
	if got := summarize(quiet, ref, true).workPerRefS; math.Abs(got-40000) > 1e-6 {
		t.Errorf("one outlier slice moved the median to %v", got)
	}
	// The live workload's rate is wall-paced and must not be calibrated.
	if got := summarize(noisy, ref, false).workPerRefS; math.Abs(got-40000) > 1e-6 {
		t.Errorf("uncalibrated median = %v, want 40000 (25 of 40 slices are quiet)", got)
	}
	// Its CPU is the geometric mean of the figure as measured and the figure
	// in reference-seconds: a host twice as slow reads √2 times the CPU.
	slow := []slice{{wallS: 0.25, cpuS: 0.050, work: 800, kBefore: 2 * ref, kAft: 2 * ref}}
	if got, want := summarize(slow, ref, false).cpuUsPerWork, 0.050/math.Sqrt2*1e6/800; math.Abs(got-want) > 1e-9 {
		t.Errorf("half-calibrated cpu = %v us, want %v", got, want)
	}
}

// Rounds after a publish in a fresh cluster are not of equal work: each
// position's time is the median over the repetitions, and the rate is one
// repetition's work over the sum of those medians.
func TestSummarizePositions(t *testing.T) {
	const ref, n = 0.020, 1000.0
	cost := []float64{0.010, 0.030, 0.050} // reference-seconds per round, by position
	var slices []slice
	for rep := 0; rep < 5; rep++ {
		slow := 1.0
		if rep == 1 {
			slow = 1.5 // a slow stretch of the host: the kernel sees it too
		}
		for _, c := range cost {
			slices = append(slices, slice{wallS: c * slow, cpuS: 2 * c * slow, work: n, kBefore: ref * slow, kAft: ref * slow})
		}
	}
	slices[4].wallS *= 20 // one stalled round moves no position's median
	w := summarizePositions(slices, len(cost), ref)
	if want := 3 * n / 0.090; math.Abs(w.workPerRefS-want) > 1e-6 {
		t.Errorf("rate = %v proc-rounds per ref-s, want %v", w.workPerRefS, want)
	}
	if want := 2 * 0.090 * 1e6 / (3 * n); math.Abs(w.cpuUsPerWork-want) > 1e-9 {
		t.Errorf("cpu = %v us per proc-round, want %v", w.cpuUsPerWork, want)
	}
	if w.work != 15*n {
		t.Errorf("work = %v, want %v", w.work, 15*n)
	}
}

func TestMeanAndSplitSlices(t *testing.T) {
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if mean(nil) != 0 {
		t.Error("mean of no readings is 0")
	}
	// Slices read on the fly inside one segment share the segment's two
	// kernel samples.
	m := &meter{cal: &calibrator{tables: []kernelTables{{big: make([]uint64, 2), small: make([]uint64, 2)}}, state: []uint64{1}}}
	m.beginSlice()
	before := m.cur.kBefore
	m.endSplit([]slice{{wallS: 0.25, work: 800}, {wallS: 0.25, work: 801}})
	if len(m.slices) != 2 || m.slices[0].kBefore != before || m.slices[1].kBefore != before ||
		m.slices[0].kAft != m.lastK || m.slices[1].kAft != m.lastK || before <= 0 || m.lastK <= 0 {
		t.Errorf("split slices = %+v, bracket %v..%v", m.slices, before, m.lastK)
	}
	m.beginSlice()
	if m.cur.kBefore != m.lastK {
		t.Error("a slice opens with the kernel sample that closed the one before")
	}
}

// Publishers are never cancelled, so a topic must keep members that are
// not publishers or the churn has nobody to pick.
func TestBusPublishersLeaveMembersToCancel(t *testing.T) {
	for members := busMinTopicSize + 1; members < 700; members++ {
		if p := busPublishers(members); p < 1 || p > 32 || members-p < members/2 {
			t.Fatalf("busPublishers(%d) = %d", members, p)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "driver", Start: 0, End: 1000, Parent: -1, N: 1},
		{Name: "round", Start: 100, End: 600, Parent: 0, N: 1},
		{Name: "tick", Start: 150, End: 350, Parent: 1, N: 20},
		{Name: "tick", Start: 400, End: 500, Parent: 1, N: 10},
		{Name: "round", Start: 700, End: 900, Parent: 0, N: 1},
	}
	got := selfTimes(spans)
	if s := got["driver"]; s.selfNs != 1000-500-200 || s.calls != 1 {
		t.Errorf("driver self = %+v, want 300 ns", s)
	}
	if s := got["round"]; s.selfNs != (500-300)+200 || s.calls != 2 || s.spans != 2 {
		t.Errorf("round self = %+v, want 400 ns over 2 calls", s)
	}
	if s := got["tick"]; s.selfNs != 300 || s.calls != 30 || s.perCall(1) != 10 {
		t.Errorf("tick self = %+v, want 300 ns over 30 calls", s)
	}
	if (layerTotals{}).perCall(1) != 0 {
		t.Error("a layer never entered reads 0, not NaN")
	}
}

func TestTracerNesting(t *testing.T) {
	var none *tracer
	none.begin("x", 0) // a nil tracer records nothing and must not panic
	none.end(1)
	tr := newTracer()
	tr.begin("a", 7)
	tr.begin("b", 7)
	tr.end(3)
	tr.end(1)
	tr.begin("c", 8)
	tr.end(1)
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[2].Parent != -1 {
		t.Fatalf("parents wrong: %+v", tr.spans)
	}
	if tr.spans[1].N != 3 || tr.spans[1].Op != 7 || tr.spans[1].End < tr.spans[1].Start {
		t.Errorf("span b = %+v", tr.spans[1])
	}
	path, err := tr.write(t.TempDir(), "unit", 1, hostInfo())
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines != 4 {
		t.Errorf("trace file has %d lines, want header + 3 spans", lines)
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b, c := newGen(7, "origins"), newGen(7, "origins"), newGen(7, "crashes")
	same, differ := true, false
	for i := 0; i < 100; i++ {
		x, y, z := a.next(), b.next(), c.next()
		same = same && x == y
		differ = differ || x != z
	}
	if !same || !differ {
		t.Errorf("one seed and stream must repeat (%v); another stream must not (%v)", same, differ)
	}
	z := newZipf(16, 1.0)
	counts := make([]int, 16)
	g := newGen(1, "zipf")
	for i := 0; i < 20000; i++ {
		counts[z.draw(g)]++
	}
	if !(counts[0] > counts[3] && counts[3] > counts[15] && counts[15] > 0) {
		t.Errorf("Zipf draws are not decreasing in rank: %v", counts)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestDeclaredNamesAndLimits(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	if len(workloads) != 5 {
		t.Errorf("%d workloads, want 5", len(workloads))
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len([]rune(w.why)) > 200 || strings.ContainsAny(w.why, "\n\r") || w.why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len([]rune(w.why)))
		}
		if w.run == nil || w.trc == nil {
			t.Errorf("workload %s lacks a run or a traced run", w.name)
		}
	}
	if len(endToEnd) != 7 {
		t.Errorf("%d end-to-end metrics, want 7", len(endToEnd))
	}
	// The regression bounds are pinned to what metrics.go gives a measured
	// reason for. A noisy cell is first a reason to fix the estimator or the
	// workload's size; moving one of these is a decision to write down
	// there, not a side effect. setup_s carries the largest, as the driver's
	// contract asks.
	pinned := map[string]float64{"setup_s": 0.25, "proc_rounds_per_s": 0.25, "cpu_us_per_proc_round": 0.25,
		"heap_bytes_per_process": 0.06, "delivered_ratio": 0.005, "deliver_ms_p50": 0.25, "deliver_ms_p99": 0.25}
	for _, m := range endToEnd {
		check("end-to-end", m.name)
		if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("%s: unit %q better %q", m.name, m.unit, m.better)
		}
		if want, ok := pinned[m.name]; !ok || m.bound != want {
			t.Errorf("%s: bound %v, pinned at %v", m.name, m.bound, want)
		}
		if m.bound > endToEnd[0].bound {
			t.Errorf("%s: bound %v exceeds setup_s's %v", m.name, m.bound, endToEnd[0].bound)
		}
	}
	if m := endToEnd[0]; m.name != "setup_s" || m.unit != "s" || m.better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better: %+v", m)
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	for _, m := range perLayer {
		check("per-layer", m.name)
		if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("%s: unit %q better %q", m.name, m.unit, m.better)
		}
		if m.moves == "" {
			t.Errorf("%s: no statement of what it should move", m.name)
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := describeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json would be %d bytes, limit 64 KiB", len(want))
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if os.IsNotExist(err) {
		t.Skip("no ../BENCHMARK.json: not inside the repository")
	}
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == string(want) {
		return
	}
	if os.Getenv("UPDATE_BENCHMARK_JSON") == "" {
		t.Fatalf("../BENCHMARK.json differs from the tables in metrics.go and main.go; rerun with UPDATE_BENCHMARK_JSON=1 to rewrite it")
	}
	if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSmoke drives every workload end to end at a tenth of its size:
// every declared metric must come out, by name, finite, with the run
// correct. The traced pass (layer replay, probes, span file) is skipped
// under -short.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			p := params{seed: 11, seconds: runSeconds, quick: true, outDir: t.TempDir()}
			checkResult(t, w.run(p), endToEnd, true)
			if testing.Short() {
				return
			}
			p.trace = true
			checkResult(t, w.trc(p), perLayer, false)
			if _, err := os.Stat(p.outDir + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}

func checkResult(t *testing.T, res *result, defs []metricDef, nonZero bool) {
	t.Helper()
	if !res.correct() {
		t.Errorf("%s: incorrect: %v", res.workload, res.problems)
	}
	if res.ops < 1 || res.failedOps != 0 {
		t.Errorf("%s: ops=%d failed_ops=%d", res.workload, res.ops, res.failedOps)
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s missing or not finite (%v)", res.workload, d.name, v)
		}
		if nonZero && v <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", res.workload, d.name, v)
		}
	}
	for name := range res.metrics {
		if !nameRE.MatchString(name) {
			t.Errorf("%s: emitted metric name %q does not match %v", res.workload, name, nameRE)
		}
	}
}
