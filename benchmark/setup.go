package main

import (
	"runtime"
	"time"
)

// setupTimer times build — from nothing to ready-to-measure — in samples:
// each is perSample builds, so that it is long enough to time, taken after a
// forced collection and bracketed by calibration kernels. build returns the
// function that tears the system down again; teardown is not timed.
//
// A run takes half of its p.setupBuilds() samples before it builds the
// system it measures and the other half after it has closed it, never while
// it is alive (its heap would be marked by the collections the builds
// trigger). The host's speed moves in stretches about as long as a run, and
// twenty samples taken within a second all sit in one: on the n=1000
// workloads their median moved by 17 % between runs where the window's own
// medians moved by 5 %.
type setupTimer struct {
	cal         *calibrator
	perSample   int
	build       func() func()
	refs, walls []float64
}

// newSetupTimer makes and discards one build: it pays for first-touch page
// faults and lazy initialisation that later builds do not.
func newSetupTimer(cal *calibrator, perSample int, build func() func()) *setupTimer {
	build()()
	return &setupTimer{cal: cal, perSample: perSample, build: build}
}

// take adds n samples, back to back.
func (t *setupTimer) take(n int) {
	k := t.cal.run()
	for i := 0; i < n; i++ {
		runtime.GC()
		var wall float64
		for j := 0; j < t.perSample; j++ {
			t0 := time.Now()
			closer := t.build()
			wall += time.Since(t0).Seconds()
			closer()
		}
		wall /= float64(t.perSample)
		after := t.cal.run()
		t.refs = append(t.refs, toRef(wall, k, after, t.cal.refS()))
		t.walls = append(t.walls, wall)
		k = after
	}
}

// finish takes the second half of the samples — the caller has closed the
// system it measured — and records the median build in reference-seconds
// and in wall seconds.
func (t *setupTimer) finish(p params, res *result) {
	t.take(p.setupBuilds() - p.setupBuilds()/2)
	res.metrics["setup_s"] = median(t.refs)
	res.metrics["host.setup_wall_s"] = median(t.walls)
}
