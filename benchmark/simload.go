package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/sim"
)

// simSpec describes a workload that drives one sim.Cluster under a steady
// publish load.
type simSpec struct {
	name            string
	n               int     // processes at full size
	publishes       int     // per gossip period, at random live origins
	warmup          int     // untimed periods before the window, same load
	periodsPerSlice int     // a slice is this many periods (equal work)
	periodsPerRefS  float64 // sizing: periods the reference box runs per second
	periodMs        float64 // simulated length of a gossip period
	deadline        int     // periods an event has to reach everyone
	ratioFloor      float64 // delivered_ratio below this fails the run
	setupPerSample  int     // builds per timed set-up sample
	options         func(seed uint64, n, warm, periods int) sim.Options
}

// seqSpec is the §5.2 loaded regime on the reference executor.
var seqSpec = simSpec{
	name: wSeq, n: 1000, publishes: 4, warmup: 60,
	periodsPerSlice: 8, periodsPerRefS: 45, periodMs: 100,
	deadline: 30, ratioFloor: 0.995, setupPerSample: 20,
	options: func(seed uint64, n, warm, _ int) sim.Options {
		o := sim.DefaultOptions(n) // F=3, l=15, |events|m=30, |eventIds|m=60, ε=0.05, τ=0.01
		o.Seed = seed
		o.Lpbcast.Retransmit = true
		// Every crash happens during the warm-up, so the measured window
		// has one live population and delivered_ratio one denominator.
		o.Horizon = uint64(warm * 5 / 6)
		// The recycling emission path is what the sharded executor, the bus
		// and the live node always run, and results are identical either
		// way; it also keeps the collector out of the timed region, which
		// is what lets the single-goroutine kernel track this workload.
		o.EmissionReuse = true
		return o
	},
}

// wanSpec runs the same engines on the event clock with unsynchronised
// periods, millisecond link delays and a recurring WAN partition.
var wanSpec = simSpec{
	name: wWan, n: 1000, publishes: 3, warmup: 60,
	periodsPerSlice: 6, periodsPerRefS: 40, periodMs: 100,
	deadline: 30, ratioFloor: 0.995, setupPerSample: 20,
	options: func(seed uint64, n, warm, periods int) sim.Options {
		o := sim.DefaultOptions(n)
		o.Seed = seed
		o.EmissionReuse = true
		o.Tau = 0 // crashes are sim-loaded-seq's; here the horizon belongs to the partitions
		o.Lpbcast.Retransmit = true
		o.Lpbcast.RetransmitTimeout = 2 // periods: the simulator ticks engines in periods on either clock
		o.Async = true
		o.Clock = sim.ClockEvent
		o.PeriodMs = 100
		split := proto.ProcessID(n / 2)
		// Loss comes from the topology in force; the delays come from a
		// second TwoCluster read in milliseconds (the simulator refuses a
		// topology whose own link delays are in rounds next to a ms model).
		o.Topology = fault.TwoCluster{Split: split,
			Local: fault.LinkProfile{Epsilon: -1},
			WAN:   fault.LinkProfile{Epsilon: 0.10}}
		o.Delay = fault.Millis{Model: fault.TopologyDelay{T: fault.TwoCluster{Split: split,
			Local: fault.LinkProfile{MinDelay: 1, MaxDelay: 5},
			WAN:   fault.LinkProfile{MinDelay: 40, MaxDelay: 180}}}}
		// The first cut falls early in the window, so that even the traced
		// run's quarter window sees one.
		for from := warm + wanPartitionFirst; from < periods; from += wanPartitionEvery {
			o.Partitions = append(o.Partitions, fault.Partition{
				From: uint64(from), To: uint64(from + wanPartitionLen),
				Classes: []fault.LinkClass{fault.LinkWAN}})
		}
		return o
	},
}

const (
	wanPartitionFirst = 10  // periods into the window of the first WAN cut
	wanPartitionEvery = 100 // periods between WAN cuts
	wanPartitionLen   = 10  // periods a cut lasts
)

// trackedEvent is a published event on its way to its deadline.
type trackedEvent struct {
	id        proto.EventID
	published int // period
	seen      int // DeliveredCount at the last look
}

// simRun is one cluster under load plus the benchmark's view of what it
// delivered.
type simRun struct {
	spec    *simSpec
	c       *sim.Cluster
	n       int
	origins *gen
	tr      *tracer
	period  int
	pending []proto.Event // published this period, not yet tracked
	tracked []trackedEvent
	hist    latencyHist
	// delivered and possible are delivered_ratio's two sides, summed over
	// events that reached their deadline.
	delivered, possible uint64
	ops, failedOps      int
	publishErrs         int
	originBuf           []int
}

func newSimRun(spec *simSpec, p params, seed uint64, periods int, tr *tracer) (*simRun, error) {
	n := p.scale(spec.n)
	tr.begin("sim.build", 0)
	c, err := sim.NewCluster(spec.options(seed, n, spec.warmupPeriods(p), periods))
	tr.end(int64(n))
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", spec.name, err)
	}
	return &simRun{spec: spec, c: c, n: n, origins: newGen(seed, "origins"), tr: tr}, nil
}

// runPeriod publishes the period's events and advances the cluster, timed
// by m when it is not nil; then, untimed, reads how far every tracked
// event has got. track false (the warm-up) publishes without tracking.
func (r *simRun) runPeriod(m *meter, track bool) {
	r.period++
	origins := r.originBuf[:0]
	for len(origins) < r.spec.publishes {
		i := r.origins.intn(publishers(r.n))
		if !r.c.Crashed(proto.ProcessID(i + 1)) {
			origins = append(origins, i)
		}
	}
	r.originBuf = origins
	r.pending = r.pending[:0]
	op := int64(r.period)

	if m != nil {
		m.start()
	}
	for _, i := range origins {
		r.tr.begin("sim.publish", op)
		ev, err := r.c.PublishAt(i)
		r.tr.end(1)
		if err != nil {
			r.publishErrs++
			continue
		}
		r.pending = append(r.pending, ev)
	}
	r.tr.begin("sim.round", op)
	r.c.RunRound()
	r.tr.end(1)
	if m != nil {
		m.stop(float64(r.c.AliveCount()))
	}

	if !track {
		return
	}
	for _, ev := range r.pending {
		// The origin delivers to itself inside PublishAt; that is not a
		// network delivery and carries no latency.
		r.tracked = append(r.tracked, trackedEvent{id: ev.ID, published: r.period - 1, seen: 1})
	}
	r.observe()
}

// observe reads DeliveredCount for every tracked event, files the new
// deliveries under their age in periods, and settles events at their
// deadline.
func (r *simRun) observe() {
	alive := r.c.AliveCount()
	keep := r.tracked[:0]
	for _, t := range r.tracked {
		age := r.period - t.published
		cnt := r.c.DeliveredCount(t.id)
		r.hist.add(age, uint64(cnt-t.seen))
		t.seen = cnt
		if age < r.spec.deadline {
			keep = append(keep, t)
			continue
		}
		r.ops++
		r.delivered += uint64(cnt)
		r.possible += uint64(alive)
		if !reached(cnt, alive) {
			r.failedOps++
		}
	}
	r.tracked = keep
}

// publishers is how many of n processes ever publish: the first quarter.
// With every process a publisher, per-origin state (the dedup watermarks)
// grows through the whole window, and whether a Go map happens to be
// mid-growth when the window ends moves heap_bytes_per_process by 40 % from
// one seed to the next. A fixed publisher set saturates in the warm-up.
func publishers(n int) int {
	if n < 8 {
		return n
	}
	return n / 4
}

// opReach is the share of live processes an event must reach by its
// deadline for its publish to count as a successful operation.
const opReach = 0.99

// reached applies opReach in whole processes: of 37 subscribers 36 must
// have the event, of 990 processes 980.
func reached(got, owed int) bool { return got >= int(opReach*float64(owed)) }

// engineStats sums the engines' counters.
func (r *simRun) engineStats() core.Stats {
	var s core.Stats
	for i := 0; i < r.n; i++ {
		e, ok := r.c.Process(i).(*core.Engine)
		if !ok {
			continue
		}
		addStats(&s, e.Stats())
	}
	return s
}

func addStats(s *core.Stats, o core.Stats) {
	s.GossipsSent += o.GossipsSent
	s.GossipsReceived += o.GossipsReceived
	s.EventsPublished += o.EventsPublished
	s.EventsDelivered += o.EventsDelivered
	s.DuplicatesDropped += o.DuplicatesDropped
	s.AssumedFromDigest += o.AssumedFromDigest
	s.RetransmitRequests += o.RetransmitRequests
	s.RetransmitServed += o.RetransmitServed
	s.RetransmitMisses += o.RetransmitMisses
	s.RetransmitTimeouts += o.RetransmitTimeouts
	s.EventsOverflowed += o.EventsOverflowed
}

func subStats(a, b core.Stats) core.Stats {
	return core.Stats{
		GossipsSent:        a.GossipsSent - b.GossipsSent,
		GossipsReceived:    a.GossipsReceived - b.GossipsReceived,
		EventsPublished:    a.EventsPublished - b.EventsPublished,
		EventsDelivered:    a.EventsDelivered - b.EventsDelivered,
		DuplicatesDropped:  a.DuplicatesDropped - b.DuplicatesDropped,
		AssumedFromDigest:  a.AssumedFromDigest - b.AssumedFromDigest,
		RetransmitRequests: a.RetransmitRequests - b.RetransmitRequests,
		RetransmitServed:   a.RetransmitServed - b.RetransmitServed,
		RetransmitMisses:   a.RetransmitMisses - b.RetransmitMisses,
		RetransmitTimeouts: a.RetransmitTimeouts - b.RetransmitTimeouts,
		EventsOverflowed:   a.EventsOverflowed - b.EventsOverflowed,
	}
}

// windowPeriods sizes a spec's measured window: whole slices, at least
// p.minSlices() of them.
func (s *simSpec) windowSlices(p params) int {
	slices := int(p.seconds*s.periodsPerRefS/float64(s.periodsPerSlice) + 0.5)
	if p.quick {
		slices /= 10
	}
	if slices < p.minSlices() {
		slices = p.minSlices()
	}
	return slices
}

func (s *simSpec) warmupPeriods(p params) int {
	if p.quick {
		return s.deadline
	}
	return s.warmup
}

// runSimLoad is the untraced run of a steady-load sim workload: set-up
// samples, one cluster, warm-up, a window of equal-work slices, checks.
func runSimLoad(spec *simSpec, p params) *result {
	res := newResult(spec.name)
	cal := newCalibrator(1)
	slices := spec.windowSlices(p)
	warm := spec.warmupPeriods(p)
	periods := warm + slices*spec.periodsPerSlice
	simSeed := newGen(p.seed, "sim-seed").next()
	n := p.scale(spec.n)

	setup := newSetupTimer(cal, spec.setupPerSample, func() func() {
		c, err := sim.NewCluster(spec.options(simSeed, n, warm, periods))
		if err != nil {
			res.fail("build: %v", err)
			return func() {}
		}
		return c.Close
	})
	setup.take(p.setupBuilds() / 2)
	if !res.correct() {
		return res
	}

	heapBase := heapAfterGC()
	r, err := newSimRun(spec, p, simSeed, periods, nil)
	if err != nil {
		res.fail("%v", err)
		return res
	}

	t0 := time.Now()
	for i := 0; i < warm; i++ {
		r.runPeriod(nil, false)
	}
	warmupS := time.Since(t0).Seconds()

	m := newMeter(cal)
	var heaps []float64
	for s := 0; s < slices; s++ {
		m.beginSlice()
		for i := 0; i < spec.periodsPerSlice; i++ {
			r.runPeriod(m, true)
		}
		m.endSlice()
		if s%heapEvery == heapEvery-1 {
			heaps = append(heaps, float64(heapAfterGC()))
		}
	}
	if err := r.c.NetStats().Conserved(); err != nil {
		res.fail("%v", err)
	}
	r.c.Close()

	w := summarize(m.slices, cal.refS(), true)
	fillMeasured(res, w, cal, warmupS, (mean(heaps)-float64(heapBase))/float64(n))
	r.fillDelivery(res)
	res.note("window: %d slices × %d periods, n=%d, slice wall p50 %.0f ms", slices, spec.periodsPerSlice, n, w.sliceWallP50S*1e3)
	setup.finish(p, res)
	return res
}

// fillDelivery turns the run's delivery bookkeeping into delivered_ratio,
// deliver_ms_p50/p99 and the operation counts, and applies the floor.
func (r *simRun) fillDelivery(res *result) {
	res.ops, res.failedOps = r.ops, r.failedOps+r.publishErrs
	dr := ratio(float64(r.delivered), float64(r.possible))
	res.metrics["delivered_ratio"] = dr
	if dr < r.spec.ratioFloor {
		res.fail("delivered_ratio %.5f below the workload's floor %.3f", dr, r.spec.ratioFloor)
	}
	if r.publishErrs > 0 {
		res.fail("%d publishes returned an error", r.publishErrs)
	}
	fillLatency(res, &r.hist, r.spec.periodMs)
}

func fillLatency(res *result, h *latencyHist, periodMs float64) {
	for _, q := range []struct {
		name string
		p    float64
	}{{"deliver_ms_p50", 50}, {"deliver_ms_p99", 99}} {
		v, err := h.percentileMs(q.p, periodMs)
		if err != nil {
			res.fail("%s: %v", q.name, err)
		}
		res.metrics[q.name] = v
	}
	res.note("deliver_ms_*: simulated ms over %d (event, process) deliveries", h.total)
}

func fillHost(res *result, cal *calibrator) {
	floor, med, burst := cal.hostState()
	res.metrics["host.calib_floor_ms"] = floor * 1e3
	res.metrics["host.calib_median_ms"] = med * 1e3
	res.metrics["host.burst_share"] = burst
	res.counts["host.calib_median_ms.n"] = int64(len(cal.samples))
}
