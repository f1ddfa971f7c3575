package main

import (
	"sync"
	"syscall"
	"time"
)

// Reference-seconds. Host time on a shared box drifts in stretches that
// last longer than a measured window, so a raw wall-clock rate cannot be
// compared between two runs. Every timed slice is therefore bracketed by a
// fixed calibration kernel, and its host time is reported in ref-s:
//
//	ref = wall × calibRefS / mean(kernel before, kernel after)
//
// calibRefS is what the kernel takes on the quiet reference box, so ref-s
// equals wall-s there. The kernel is memory-bound on purpose: the protocol
// engines walk maps and small slices spread over tens of megabytes, and a
// kernel that stays in cache does not track the stretches that slow them
// (README, "Reference-seconds").
const (
	// calibBigWords × 8 B = 64 MiB: far beyond the reference box's caches,
	// so nearly every access of the kernel's first phase goes out to memory,
	// as the engines' walks over a 50–500 MB heap do.
	calibBigWords = 1 << 23
	// calibSmallWords × 8 B = 4 MiB: the second phase stays in the shared
	// cache, as the engines' accesses inside one process's state do.
	calibSmallWords = 1 << 19
	// calibBigSteps and calibSmallSteps random read-modify-writes make the
	// two phases of one kernel execution; the phases take about the same
	// time (≈ 10 ms each on the reference box), so the execution slows
	// down by the mean of what a memory-bound and a cache-bound program
	// lose in a slow stretch.
	calibBigSteps   = 1 << 20
	calibSmallSteps = 1 << 22
	// calibRefS is what one kernel sample reads on the reference box (2
	// cores, go1.24) in its quiet stretches on one goroutine, and
	// calibRefParallelS on two or more goroutines at once, where the
	// kernels share the memory system.
	calibRefS         = 0.0200
	calibRefParallelS = 0.0220
	// calibRepeats kernel executions make one sample.
	calibRepeats = 3
	// burstFactor marks a kernel sample as taken in a slow stretch.
	burstFactor = 1.15
)

// calibrator owns the kernel tables (one per goroutine the workload's
// executor uses) and every kernel sample of a run.
type calibrator struct {
	tables  []kernelTables
	state   []uint64
	samples []float64 // seconds, in run order
}

// kernelTables are one goroutine's two working sets.
type kernelTables struct{ big, small []uint64 }

func newCalibrator(width int) *calibrator {
	if width < 1 {
		width = 1
	}
	c := &calibrator{tables: make([]kernelTables, width), state: make([]uint64, width)}
	for i := range c.tables {
		t := make([]uint64, calibBigWords+calibSmallWords)
		x := uint64(0x9E3779B97F4A7C15) + uint64(i)
		for j := range t {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			t[j] = x
		}
		c.tables[i] = kernelTables{big: t[:calibBigWords], small: t[calibBigWords:]}
		c.state[i] = x | 1
	}
	for i := 0; i < 3; i++ { // fault the tables in and settle the clock
		c.run()
	}
	c.samples = c.samples[:0]
	return c
}

// refS is the kernel floor that matches this calibrator's width.
func (c *calibrator) refS() float64 {
	if len(c.tables) > 1 {
		return calibRefParallelS
	}
	return calibRefS
}

// kernel is the fixed unit of work: xorshift-addressed read-modify-writes
// over the big table, then over the small one. The phases run one after
// the other, not interleaved: in one loop the cache hits would hide under
// the misses and the kernel would be memory-bound alone.
func kernel(t kernelTables, x uint64) uint64 {
	x = rmw(t.big, calibBigSteps, x)
	return rmw(t.small, calibSmallSteps, x)
}

func rmw(t []uint64, steps int, x uint64) uint64 {
	mask := uint64(len(t) - 1)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[x&mask] += x
	}
	return x
}

// run takes one calibration sample: the median of calibRepeats kernel
// executions, so that one preempted execution does not pose as a slow
// host. It is never called while timed work runs.
func (c *calibrator) run() float64 {
	var xs [calibRepeats]float64
	for i := range xs {
		xs[i] = c.once()
	}
	s := median(xs[:])
	c.samples = append(c.samples, s)
	return s
}

// once executes the kernel on every table at once and returns the wall
// time in seconds.
func (c *calibrator) once() float64 {
	t0 := time.Now()
	if len(c.tables) == 1 {
		c.state[0] = kernel(c.tables[0], c.state[0])
	} else {
		var wg sync.WaitGroup
		for i := range c.tables {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c.state[i] = kernel(c.tables[i], c.state[i])
			}(i)
		}
		wg.Wait()
	}
	return time.Since(t0).Seconds()
}

// toRef converts a host duration to reference-seconds given the kernel
// times that bracket it.
func toRef(hostS, kernelBefore, kernelAfter, refS float64) float64 {
	k := (kernelBefore + kernelAfter) / 2
	if k <= 0 {
		return hostS
	}
	return hostS * refS / k
}

// hostState summarises the kernel samples: floor, median and the share of
// samples taken in a slow stretch.
func (c *calibrator) hostState() (floorS, medianS, burstShare float64) {
	if len(c.samples) == 0 {
		return 0, 0, 0
	}
	floorS = c.samples[0]
	for _, s := range c.samples {
		if s < floorS {
			floorS = s
		}
	}
	medianS = median(c.samples)
	slow := 0
	for _, s := range c.samples {
		if s > burstFactor*floorS {
			slow++
		}
	}
	return floorS, medianS, float64(slow) / float64(len(c.samples))
}

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var r syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &r); err != nil {
		return 0
	}
	return time.Duration(r.Utime.Nano() + r.Stime.Nano())
}
