package main

import (
	"math"
	"runtime"
	"time"
)

// slice is one equal-work unit of a measured window: the host time of its
// timed region only, the work it did, and the two kernel samples that
// bracket it.
type slice struct {
	wallS, cpuS   float64
	work          float64 // process gossip periods executed
	kBefore, kAft float64
}

// meter collects the slices of one window. Timed regions are opened and
// closed by the workload around driver calls; everything the benchmark does
// for itself (reading delivery counts, drawing the next inputs) happens
// between regions and is not timed.
type meter struct {
	cal    *calibrator
	slices []slice
	cur    slice
	lastK  float64 // the latest kernel sample, 0 before the first
	t0     time.Time
	c0     time.Duration
}

func newMeter(cal *calibrator) *meter { return &meter{cal: cal} }

// beginSlice runs the leading kernel unless the last kernel sample taken
// through the meter can serve.
func (m *meter) beginSlice() {
	if m.lastK == 0 {
		m.lastK = m.cal.run()
	}
	m.cur = slice{kBefore: m.lastK}
}

func (m *meter) start() {
	m.c0 = cpuNow()
	m.t0 = time.Now()
}

func (m *meter) stop(work float64) {
	m.cur.wallS += time.Since(m.t0).Seconds()
	m.cur.cpuS += (cpuNow() - m.c0).Seconds()
	m.cur.work += work
}

func (m *meter) endSlice() {
	m.lastK = m.cal.run()
	m.cur.kAft = m.lastK
	m.slices = append(m.slices, m.cur)
}

// endSplit closes the current slice as several: parts were read on the fly
// inside it, and all of them are bracketed by the kernel sample before it
// and the one taken now.
func (m *meter) endSplit(parts []slice) {
	m.lastK = m.cal.run()
	for _, s := range parts {
		s.kBefore, s.kAft = m.cur.kBefore, m.lastK
		m.slices = append(m.slices, s)
	}
}

// windowSummary is what a window's slices reduce to.
type windowSummary struct {
	workPerRefS   float64 // median over slices
	cpuUsPerWork  float64 // median over slices, calibrated
	workPerWallS  float64 // total work ÷ total wall: the raw rate
	wallS         float64
	work          float64
	sliceWallP50S float64
}

// summarize reduces slices to medians in reference-seconds. calibrate
// false is for the live workload, whose host time the kernel does not
// follow. Its round rate is paced by wall-clock timers and stays as
// measured. Its CPU — sixteen nodes' wake-ups, timers and datagram system
// calls — slows with the host, but by less than the memory-bound kernel
// does: between a rough hour (kernel 40–50 ms) and a calmer one (24–28 ms)
// the median of ten runs moved by 22 % one way as measured and by 21 % the
// other way in reference-seconds, so either figure alone says more about
// the hour than about the program. Their geometric mean is what is
// reported: its medians over six sets of ten to fifteen runs, taken over
// seven hours, lie between 36.8 and 42.3 µs (15 %), the calibrated figure's
// between 27.0 and 36.4 (35 %), the measured one's between 42.8 and 52.1 (22 %).
func summarize(slices []slice, refS float64, calibrate bool) windowSummary {
	var rates, cpus, walls []float64
	var w windowSummary
	for _, s := range slices {
		if s.work <= 0 || s.wallS <= 0 {
			continue
		}
		wall, cpu := s.wallS, s.cpuS
		if calibrate {
			wall = toRef(wall, s.kBefore, s.kAft, refS)
			cpu = toRef(cpu, s.kBefore, s.kAft, refS)
		} else {
			cpu = math.Sqrt(cpu * toRef(cpu, s.kBefore, s.kAft, refS))
		}
		rates = append(rates, s.work/wall)
		cpus = append(cpus, cpu*1e6/s.work)
		walls = append(walls, s.wallS)
		w.wallS += s.wallS
		w.work += s.work
	}
	w.workPerRefS = median(rates)
	w.cpuUsPerWork = median(cpus)
	w.sliceWallP50S = median(walls)
	if w.wallS > 0 {
		w.workPerWallS = w.work / w.wallS
	}
	return w
}

// summarizePositions reduces a window made of repetitions, each of perRep
// slices that are not of equal work: the k-th round after a publish in a
// fresh cluster does the same work in every repetition, and not the work of
// the round before it. Each position's host time is the median over the
// repetitions, in reference-seconds, and the window's figures are the work
// of one repetition over the sum of those medians: every round counts, as
// much as it costs.
func summarizePositions(slices []slice, perRep int, refS float64) windowSummary {
	var w windowSummary
	var walls []float64
	var refWall, refCPU, work float64
	for pos := 0; pos < perRep; pos++ {
		var ws, cs []float64
		var posWork float64
		for i := pos; i < len(slices); i += perRep {
			s := slices[i]
			ws = append(ws, toRef(s.wallS, s.kBefore, s.kAft, refS))
			cs = append(cs, toRef(s.cpuS, s.kBefore, s.kAft, refS))
			walls = append(walls, s.wallS)
			posWork = s.work
			w.wallS += s.wallS
			w.work += s.work
		}
		refWall += median(ws)
		refCPU += median(cs)
		work += posWork
	}
	w.workPerRefS = ratio(work, refWall)
	w.cpuUsPerWork = ratio(refCPU*1e6, work)
	w.sliceWallP50S = median(walls)
	w.workPerWallS = ratio(w.work, w.wallS)
	return w
}

// fillMeasured records what every measured run reports besides its
// delivery figures and set-up: the window's medians, heap, and the raw host
// figures that ride along.
func fillMeasured(res *result, w windowSummary, cal *calibrator, warmupS, heapPerProcess float64) {
	res.metrics["proc_rounds_per_s"] = w.workPerRefS
	res.metrics["cpu_us_per_proc_round"] = w.cpuUsPerWork
	res.metrics["heap_bytes_per_process"] = heapPerProcess
	res.metrics["host.proc_rounds_per_wall_s"] = w.workPerWallS
	res.metrics["host.warmup_s"] = warmupS
	fillHost(res, cal)
}

// heapEvery is how often a window reads its live heap: after every
// heapEvery-th slice. heap_bytes_per_process is the mean of the readings.
// The heap grows through the window (archives and digests fill at the rate
// their topic or origin publishes) and it grows in steps, when the Go maps
// of a whole group double at once: a reading at one instant differed by
// 2.1 % between ten seeds of bus-zipf-churn, and by up to 9.7 % at the
// instants where some seeds had taken a step and others not yet; the mean
// over the window by 0.8 %.
const heapEvery = 4

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// heapAfterGC forces two collections (the second frees what finalizers and
// cleanups of the first released) and returns the live heap.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func gcCycles() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}
