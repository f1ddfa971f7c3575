package main

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/stats"
)

// A traced run re-runs the workload at a quarter of its length three
// times over the same seed: untraced (the reference rate), traced (level 1
// spans around every driver call), and as a layer replay (level 2 spans
// around every call into core, fault and event); then the leaf probes run
// on messages the replay emitted. End-to-end metrics are never taken from
// a traced run.
const traceShare = 4

// replayLayers are the spans whose self times add up to the replay's cost:
// what the layers cost without any executor around them.
var replayLayers = []string{"core.tick", "core.handle_gossip", "core.handle_subscribe",
	"core.handle_request", "core.handle_reply", "fault.classify", "event.pop", "event.schedule"}

// tracedSlices is a quarter of the measured window, but never so short
// that no event reaches its deadline inside it.
func tracedSlices(full, periodsPerSlice, deadline int) int {
	slices := full / traceShare
	if min := deadline/periodsPerSlice + 2; slices < min {
		slices = min
	}
	return slices
}

// replayer is a layer replay of some schedule.
type replayer interface {
	advance(periods int)
	attach(tr *tracer) // start recording spans and counting work
	stats() replayStats
}

func (r *roundReplay) advance(periods int) {
	for i := 0; i < periods; i++ {
		r.period()
	}
}
func (r *roundReplay) attach(tr *tracer)  { r.tr, r.measuring = tr, true }
func (r *roundReplay) stats() replayStats { return r.st }

func (r *eventReplay) advance(periods int) {
	r.periodsRun += periods
	r.runUntil(r.periodsRun)
}
func (r *eventReplay) attach(tr *tracer)  { r.tr, r.measuring = tr, true }
func (r *eventReplay) stats() replayStats { return r.st }

// newSimReplay builds the replay that matches a steady-load sim spec.
func newSimReplay(spec *simSpec, o sim.Options, seed uint64) (replayer, error) {
	if o.Clock == sim.ClockEvent {
		return newEventReplay(simOptionsView{n: o.N, cfg: o.Lpbcast, epsilon: o.Epsilon,
			topo: o.Topology, delay: o.Delay, parts: o.Partitions,
			publishes: spec.publishes, publishers: publishers(o.N), periodMs: uint64(o.PeriodMs)}, seed)
	}
	return newRoundReplay(o.Lpbcast, o.N, o.Epsilon, o.Tau, int(o.Horizon), spec.publishes, seed)
}

// driverWindow is what one pass of the driver over the traced window
// yields.
type driverWindow struct {
	w            windowSummary
	net          stats.NetStats // delta over the window
	eng          core.Stats     // delta over the window
	inflightPeak uint64
	warmupS      float64
	gcCycles     uint32
	pool         float64 // pool hit ratio of the cluster
}

// simWindow builds a cluster, warms it up and runs slices of the window
// under tr (nil: untraced).
func simWindow(spec *simSpec, p params, cal *calibrator, seed uint64, warm, slices int, tr *tracer) (*driverWindow, *simRun, error) {
	periods := warm + slices*spec.periodsPerSlice
	r, err := newSimRun(spec, p, seed, periods, tr)
	if err != nil {
		return nil, nil, err
	}
	r.tr = nil
	t0 := time.Now()
	for i := 0; i < warm; i++ {
		r.runPeriod(nil, false)
	}
	d := &driverWindow{warmupS: time.Since(t0).Seconds()}
	net0, eng0, gc0 := r.c.NetStats(), r.engineStats(), gcCycles()
	r.tr = tr
	m := newMeter(cal)
	tr.begin("driver.window", 0)
	for s := 0; s < slices; s++ {
		m.beginSlice()
		for i := 0; i < spec.periodsPerSlice; i++ {
			r.runPeriod(m, true)
			if f := r.c.NetStats().InFlight; f > d.inflightPeak {
				d.inflightPeak = f
			}
		}
		m.endSlice()
	}
	tr.end(int64(slices * spec.periodsPerSlice))
	d.w = summarize(m.slices, cal.refS(), true)
	d.net = subNet(r.c.NetStats(), net0)
	d.eng = subStats(r.engineStats(), eng0)
	d.gcCycles = gcCycles() - gc0
	ps := r.c.PoolStats()
	d.pool = poolHitRatio(ps)
	if err := r.c.NetStats().Conserved(); err != nil {
		return nil, nil, err
	}
	return d, r, nil
}

// poolHitRatio is the share of pool gets served from a chunk that was
// already allocated: every miss costs one allocation from the Go heap.
func poolHitRatio(ps pool.Stats) float64 {
	if ps.Gets == 0 {
		return 0
	}
	return 1 - float64(ps.Chunks)/float64(ps.Gets)
}

func subNet(a, b stats.NetStats) stats.NetStats {
	return stats.NetStats{
		Sent: a.Sent - b.Sent, Dropped: a.Dropped - b.Dropped, ToCrashed: a.ToCrashed - b.ToCrashed,
		UnknownDest: a.UnknownDest - b.UnknownDest, Delivered: a.Delivered - b.Delivered,
		DeliveredLate: a.DeliveredLate - b.DeliveredLate, DroppedInPartition: a.DroppedInPartition - b.DroppedInPartition,
		InFlight: a.InFlight, TruncatedChase: a.TruncatedChase - b.TruncatedChase,
	}
}

// traceSimLoad is the traced run of a steady-load sim workload.
func traceSimLoad(spec *simSpec, p params) *result {
	res := newTraceResult(spec.name)
	cal := newCalibrator(1)
	slices := tracedSlices(spec.windowSlices(p), spec.periodsPerSlice, spec.deadline)
	warm := spec.warmupPeriods(p)
	window := slices * spec.periodsPerSlice
	simSeed := newGen(p.seed, "sim-seed").next()
	n := p.scale(spec.n)
	opts := spec.options(simSeed, n, warm, warm+window)

	plain, pr, err := simWindow(spec, p, cal, simSeed, warm, slices, nil)
	if err != nil {
		res.fail("untraced pass: %v", err)
		return res
	}
	pr.c.Close()

	tr := newTracer()
	traced, r, err := simWindow(spec, p, cal, simSeed, warm, slices, tr)
	if err != nil {
		res.fail("traced pass: %v", err)
		return res
	}
	r.c.Close()
	r.fillDelivery(res) // ops and correctness; the figures themselves are not reported from a traced run

	rp, err := newSimReplay(spec, opts, simSeed)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	rp.advance(warm)
	rs, replayW := replayWindow(rp, tr, cal, slices, spec.periodsPerSlice)

	wireBytes := runLeafProbes(tr, rs.sample, n, opts.Lpbcast.Membership.MaxView, opts.Lpbcast.Fanout, simSeed)

	fillSpanLayers(res, tr.spans)
	fillSimLayers(res, tr.spans, plain, traced, rs, replayW, 1)
	res.metrics["wire.bytes_per_msg"] = wireBytes
	fillHost(res, cal)
	finishTrace(res, tr, p)
	return res
}

// replayWindow runs the measured part of a layer replay in slices, like a
// driver window: kernels between slices, and per slice the time spent
// inside layer spans (not the replay's own glue) against the process
// periods executed. Its summary is the layers' cost in reference-seconds.
func replayWindow(rp replayer, tr *tracer, cal *calibrator, slices, periodsPerSlice int) (replayStats, windowSummary) {
	inLayer := make(map[string]bool, len(replayLayers))
	for _, name := range replayLayers {
		inLayer[name] = true
	}
	rp.attach(tr)
	m := newMeter(cal)
	tr.begin("replay.window", 0)
	for s := 0; s < slices; s++ {
		m.beginSlice()
		first, work0 := len(tr.spans), rp.stats().procRounds
		rp.advance(periodsPerSlice)
		var ns int64
		for _, sp := range tr.spans[first:] {
			if inLayer[sp.Name] { // leaves: a layer span has no children
				ns += sp.End - sp.Start
			}
		}
		m.cur.wallS = float64(ns) / 1e9
		m.cur.work = rp.stats().procRounds - work0
		m.endSlice()
	}
	tr.end(int64(slices * periodsPerSlice))
	return rp.stats(), summarize(m.slices, cal.refS(), true)
}

// fillSpanLayers turns span self times into the per-call layer metrics.
func fillSpanLayers(res *result, spans []span) {
	t := selfTimes(spans)
	for _, l := range []struct {
		metric, span string
		unitNs       float64
	}{
		{"rng.sample_ns", "rng.sample", 1}, {"rng.zipf_ns", "rng.zipf", 1},
		{"buffer.keyed_add_ns", "buffer.keyed_add", 1}, {"buffer.digest_contains_ns", "buffer.digest_contains", 1},
		{"buffer.archive_get_ns", "buffer.archive_get", 1},
		{"membership.pick_ns", "membership.pick", 1}, {"membership.merge_ns", "membership.merge", 1},
		{"membership.truncate_ns", "membership.truncate", 1},
		{"membership.join_us", "membership.join", 1e3}, {"membership.unsub_us", "membership.unsub", 1e3},
		{"core.tick_ns", "core.tick", 1}, {"core.handle_gossip_ns", "core.handle_gossip", 1},
		{"core.handle_request_ns", "core.handle_request", 1}, {"core.handle_reply_ns", "core.handle_reply", 1},
		{"fault.classify_ns", "fault.classify", 1},
		{"event.schedule_ns", "event.schedule", 1}, {"event.pop_ns", "event.pop", 1},
		{"sim.build_us_per_process", "sim.build", 1e3}, {"sim.publish_us", "sim.publish", 1e3},
		{"idmap.lookup_ns", "idmap.lookup", 1}, {"pool.get_ns", "pool.get", 1},
		{"pubsub.subscribe_us", "pubsub.subscribe", 1e3}, {"pubsub.cancel_us", "pubsub.cancel", 1e3},
		{"pubsub.publish_us", "pubsub.publish", 1e3},
		{"wire.encode_ns", "wire.encode", 1}, {"wire.decode_ns", "wire.decode", 1},
		{"transport.udp_sendbatch_us", "transport.udp_sendbatch", 1e3},
		{"transport.inproc_sendbatch_us", "transport.inproc_sendbatch", 1e3},
		{"live.publish_us", "live.publish", 1e3},
	} {
		res.setLayer(l.metric, t[l.span], l.unitNs)
	}
}

// spanPercentiles reports the median and the highest supported percentile
// of the durations of spans with the given name, in ms.
func spanPercentiles(res *result, spans []span, name, p50Metric, tailMetric string) {
	var ms []float64
	for _, s := range spans {
		if s.Name == name {
			ms = append(ms, float64(s.End-s.Start)/1e6)
		}
	}
	if len(ms) == 0 {
		return
	}
	res.metrics[p50Metric] = median(ms)
	hp := highestPercentile(len(ms))
	if v, err := percentile(ms, hp); err == nil {
		res.metrics[tailMetric] = v
	}
	res.counts[p50Metric+".n"] = int64(len(ms))
	res.note("%s is p%g of %d spans", tailMetric, hp, len(ms))
}

// fillSimLayers derives the counters, ratios and residuals of a sim
// workload's traced run. workers is the driver's executor width.
func fillSimLayers(res *result, spans []span, plain, traced *driverWindow, rs replayStats, replayW windowSummary, workers int) {
	spanPercentiles(res, spans, "sim.round", "sim.round_ms_p50", "sim.round_ms_tail")
	fillCoreRatios(res, traced.eng, traced.net.Sent, traced.w.work)
	res.metrics["fault.drop_ratio"] = ratio(float64(traced.net.Dropped), float64(traced.net.Sent))
	res.metrics["fault.partition_drop_ratio"] = ratio(float64(traced.net.DroppedInPartition), float64(traced.net.Sent))
	res.metrics["sim.late_ratio"] = ratio(float64(traced.net.DeliveredLate), float64(traced.net.Delivered))
	res.metrics["sim.inflight_peak"] = float64(traced.inflightPeak)
	res.metrics["event.timers_per_proc_round"] = ratio(float64(rs.timers), rs.procRounds)
	res.metrics["pool.hit_ratio"] = traced.pool

	checkReplayRate(res, rs, ratio(float64(traced.net.Sent), traced.w.work))

	// Residuals: what the driver costs beyond the layer calls.
	// Both sides in reference-ns, so a slow stretch during one of the
	// passes does not pose as executor overhead.
	t := selfTimes(spans)
	replayPer := ratio(1e9, replayW.workPerRefS)
	driverPer := ratio(1e9, plain.w.workPerRefS) // untraced pass
	res.metrics["sim.overhead_share"] = 1 - ratio(replayPer, driverPer*float64(workers))
	res.metrics["sim.parallel_efficiency"] = ratio(replayPer, driverPer*float64(workers))
	res.note("per process period: layers %.0f ref-ns in the replay, driver %.0f ref-ns wall on %d worker(s)", replayPer, driverPer, workers)

	res.metrics["trace.overhead_ratio"] = ratio(ratio(1, traced.w.workPerRefS), ratio(1, plain.w.workPerRefS))
	res.metrics["host.proc_rounds_per_wall_s"] = plain.w.workPerWallS
	res.metrics["host.setup_wall_s"] = ratio(float64(t["sim.build"].selfNs)/1e9, float64(t["sim.build"].spans))
	res.metrics["host.warmup_s"] = traced.warmupS
	res.metrics["host.gc_cycles"] = float64(traced.gcCycles)
}

// fillCoreRatios derives the engines' message and waste ratios from their
// summed counters over a window of work process periods in which sent
// messages reached the network.
func fillCoreRatios(res *result, e core.Stats, sent uint64, work float64) {
	res.metrics["core.msgs_per_proc_round"] = ratio(float64(sent), work)
	res.counts["core.msgs_per_proc_round.n"] = int64(sent)
	res.metrics["core.duplicate_ratio"] = ratio(float64(e.DuplicatesDropped), float64(e.DuplicatesDropped+e.EventsDelivered))
	res.metrics["core.retransmit_per_delivery"] = ratio(float64(e.RetransmitServed), float64(e.EventsDelivered))
	res.metrics["core.overflow_per_event"] = ratio(float64(e.EventsOverflowed), float64(e.EventsPublished))
	res.counts["core.duplicate_ratio.n"] = int64(e.DuplicatesDropped + e.EventsDelivered)
	res.counts["core.retransmit_per_delivery.n"] = int64(e.EventsDelivered)
	res.counts["core.overflow_per_event.n"] = int64(e.EventsPublished)
}

// checkReplayRate holds the layer replay to the driver's protocol work:
// its messages per process period must be within tolerance of the driver's.
func checkReplayRate(res *result, rs replayStats, driverRate float64) {
	rateErr := ratio(math.Abs(rs.msgsPerProcRound()-driverRate), driverRate)
	res.metrics["replay.msg_rate_error"] = rateErr
	res.note("messages per process period: driver %.4f, layer replay %.4f", driverRate, rs.msgsPerProcRound())
	if rateErr > replayTolerance {
		res.fail("layer replay sends %.4f messages per process period, the driver %.4f: off by %.1f%% (limit %.0f%%)",
			rs.msgsPerProcRound(), driverRate, rateErr*100, replayTolerance*100)
	}
}

// finishTrace writes the span file.
func finishTrace(res *result, tr *tracer, p params) {
	path, err := tr.write(p.outDir, res.workload, p.seed, hostInfo())
	if err != nil {
		res.fail("%v", err)
		return
	}
	res.note("%d spans written to %s", len(tr.spans), path)
}

// traceScale is the traced run of the scale workload: one repetition per
// pass.
func traceScale(p params) *result {
	res := newTraceResult(wScale)
	n := p.scale(scaleN)
	workers := shardWorkers()
	cal := newCalibrator(workers)
	seed := newGen(p.seed, "sim-seed").next()
	origin := newGen(p.seed, "origins").intn(n)

	pass := func(tr *tracer) (*driverWindow, bool) {
		m := newMeter(cal)
		var hist latencyHist
		gc0 := gcCycles()
		tr.begin("driver.window", 0)
		rep := runScaleRep(n, workers, seed, origin, m, tr, &hist, res)
		tr.end(scalePeriods)
		if rep == nil {
			return nil, false
		}
		defer rep.c.Close()
		d := &driverWindow{w: summarizePositions(m.slices, scalePeriods, cal.refS()), net: rep.c.NetStats(), gcCycles: gcCycles() - gc0}
		for i := 0; i < n; i++ {
			if e, ok := rep.c.Process(i).(*core.Engine); ok {
				addStats(&d.eng, e.Stats())
			}
		}
		ps := rep.c.PoolStats()
		d.pool = poolHitRatio(ps)
		res.ops = 1
		if !reached(rep.delivered, n) {
			res.failedOps = 1
		}
		return d, true
	}
	plain, ok := pass(nil)
	if !ok {
		return res
	}
	tr := newTracer()
	traced, ok := pass(tr)
	if !ok {
		return res
	}

	o := scaleOptions(seed, n, workers)
	rp, err := newRoundReplay(o.Lpbcast, n, o.Epsilon, 0, 1, 0, seed)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	rp.engines[origin].Publish(nil)
	rs, replayW := replayWindow(rp, tr, newCalibrator(1), scalePeriods, 1)

	wireBytes := runLeafProbes(tr, rs.sample, n, o.Lpbcast.Membership.MaxView, o.Lpbcast.Fanout, seed)
	fillSpanLayers(res, tr.spans)
	fillSimLayers(res, tr.spans, plain, traced, rs, replayW, workers)
	res.metrics["wire.bytes_per_msg"] = wireBytes
	fillHost(res, cal)
	finishTrace(res, tr, p)
	return res
}
