package main

import (
	"fmt"
	"runtime"
)

// params is one run's input: everything else derives from it.
type params struct {
	seed    uint64
	seconds float64 // size of the measured window in reference-seconds
	quick   bool    // n and windows ÷ 10: a smoke pass, not a measurement
	trace   bool
	outDir  string
}

// scale shrinks a size for -quick.
func (p params) scale(n int) int {
	if p.quick {
		n /= 10
	}
	if n < 1 {
		n = 1
	}
	return n
}

// minSlices is the fewest equal-work slices a measured window is cut into.
func (p params) minSlices() int {
	if p.quick {
		return 8 // long enough for events to reach their 30-period deadline
	}
	return 40
}

// setupBuilds is how many timed samples setup_s is the median of: half of
// them are taken before the measured system exists, half after it is gone.
func (p params) setupBuilds() int {
	if p.quick {
		return 4
	}
	return 20
}

// result is one workload's outcome.
type result struct {
	workload       string
	ops, failedOps int
	problems       []string // correctness failures; any makes the run incorrect
	metrics        map[string]float64
	counts         map[string]int64 // <layer metric>.n: calls behind the figure
	notes          []string         // stated sample counts and the like
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: map[string]float64{}, counts: map[string]int64{}}
}

// newTraceResult is newResult with every per-layer metric present: a
// layer a workload never enters reads 0 there, which is a prediction the
// interaction map makes, not an omission.
func newTraceResult(workload string) *result {
	r := newResult(workload)
	for _, m := range perLayer {
		r.metrics[m.name] = 0
	}
	return r
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// setLayer records a layer's self time per call and its call count.
func (r *result) setLayer(name string, t layerTotals, unitNs float64) {
	r.metrics[name] = t.perCall(unitNs)
	r.counts[name+".n"] = t.calls
}

// hostInfo is recorded in every output so a 2-core number is never read
// as a scaling result.
func hostInfo() map[string]string {
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// shardWorkers is the sharded workload's executor width.
func shardWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 4 {
		w = 4
	}
	return w
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
