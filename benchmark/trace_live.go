package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// liveEngineConfig is the engine configuration lpbcast.NewNode arrives at
// under the live workload's options; the layer replay runs the same.
func liveEngineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Membership.UnsubTTL = 60_000 // a live node's clock is in ms
	cfg.Retransmit = true
	cfg.MaxRetransmitPerGossip = 64
	cfg.Fanout = liveFanout
	cfg.Membership.MaxView = liveView
	cfg.Membership.MaxSubs = liveView
	return cfg
}

// How many pulls a live cluster makes depends on how long a datagram takes
// from SendBatch to the receiver's engine relative to the gossip interval
// (the replay's rate runs from 3.08 messages per node round at zero transit
// to 3.27 at 1–2.5 ms). The replay models transit as uniform over the range
// the reference box shows once the nodes' tick phases are staggered
// (with all sixteen ticking at once it was 0.5–2 ms). It is a model of the
// host and not of the program, yet lands within 0.2–0.7 % of the driver.
const (
	liveTransitMinUs = 100
	liveTransitMaxUs = 400
)

// liveCounters is a snapshot of everything the live cluster counts.
type liveCounters struct {
	rounds float64
	eng    core.Stats
	sent   uint64
	drops  uint64
	bytes  uint64
	dgrams uint64
}

func (lc *liveCluster) counters() liveCounters {
	c := liveCounters{rounds: lc.rounds()}
	for _, n := range lc.nodes {
		addStats(&c.eng, n.Stats())
	}
	ts := lc.transportStats()
	c.sent, c.drops, c.bytes, c.dgrams = ts.Sent, ts.Dropped, ts.Bytes, ts.Datagrams
	return c
}

// traceLive is the traced run of the live workload: one cluster, a warm-up
// segment, an untraced window, a traced window, then the layer replay.
func traceLive(p params) *result {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(liveProcs))
	res := newTraceResult(wLive)
	cal := newCalibrator(1)
	segs := liveSegments(p) / traceShare
	if segs < 2 {
		segs = 2
	}
	tr := newTracer()
	tr.begin("live.build", 0)
	lc, err := newLiveCluster(p.seed, liveRecords((2*segs+1)*liveRate*2), true)
	tr.end(liveNodes)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	t0 := time.Now()
	runLiveWindow(lc, 1, newMeter(cal), nil)
	warmupS := time.Since(t0).Seconds()

	pm := newMeter(cal)
	runLiveWindow(lc, segs, pm, nil)
	plain := summarize(pm.slices, cal.refS(), false)

	c0, gc0, start := lc.counters(), gcCycles(), time.Now()
	tm := newMeter(cal)
	tr.begin("driver.window", 0)
	ld := runLiveWindow(lc, segs, tm, tr)
	tr.end(int64(len(ld.due)))
	elapsed := time.Since(start)
	c1 := lc.counters()
	traced := summarize(tm.slices, cal.refS(), false)
	var dropped uint64
	for _, n := range lc.nodes {
		dropped += n.DroppedDeliveries()
	}
	lc.close()
	fillLiveDelivery(res, lc, ld)

	rounds := c1.rounds - c0.rounds
	eng := subStats(c1.eng, c0.eng)
	sent := c1.sent - c0.sent
	fillCoreRatios(res, eng, sent, rounds)
	res.metrics["transport.datagrams_per_proc_round"] = ratio(float64(c1.dgrams-c0.dgrams), rounds)
	res.metrics["transport.bytes_per_delivery"] = ratio(float64(c1.bytes-c0.bytes), float64(eng.EventsDelivered-eng.EventsPublished))
	res.metrics["transport.drop_ratio"] = ratio(float64(c1.drops-c0.drops), float64(sent))
	scheduled := elapsed.Seconds() / liveInterval.Seconds() * liveNodes
	res.metrics["live.round_slip_ratio"] = ratio(rounds, scheduled)
	res.metrics["live.dropped_deliveries"] = float64(dropped)
	hp := highestPercentile(len(ld.lateMs))
	if v, err := percentile(ld.lateMs, hp); err == nil {
		res.metrics["loadgen.late_ms_tail"] = v
		res.note("loadgen.late_ms_tail is p%g of %d publishes", hp, len(ld.lateMs))
	}

	// Layer replay: the same engines on the event replay with a µs clock:
	// every node ticks at its own phase of the interval and a message is
	// in transit for liveTransit µs, no sockets.
	roundsPerSecond := int(time.Second / liveInterval)
	rp, err := newEventReplay(simOptionsView{n: liveNodes, cfg: liveEngineConfig(),
		topo: fault.Uniform{}, delay: fault.UniformDelay{Min: liveTransitMinUs, Max: liveTransitMaxUs},
		publishes: 1, every: roundsPerSecond / liveRate, payload: make([]byte, livePayload),
		periodMs: uint64(liveInterval / time.Microsecond)}, p.seed)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	rp.advance(roundsPerSecond) // the warm-up segment
	rs, _ := replayWindow(rp, tr, cal, segs, roundsPerSecond)
	checkReplayRate(res, rs, ratio(float64(sent), rounds))

	res.metrics["wire.bytes_per_msg"] = runLeafProbes(tr, rs.sample, liveNodes, liveView, liveFanout, p.seed)
	fillSpanLayers(res, tr.spans)
	res.metrics["trace.overhead_ratio"] = ratio(traced.cpuUsPerWork, plain.cpuUsPerWork)
	res.metrics["host.proc_rounds_per_wall_s"] = plain.workPerWallS
	res.metrics["host.setup_wall_s"] = float64(selfTimes(tr.spans)["live.build"].selfNs) / 1e9
	res.metrics["host.warmup_s"] = warmupS
	res.metrics["host.gc_cycles"] = float64(gcCycles() - gc0)
	fillHost(res, cal)
	finishTrace(res, tr, p)
	return res
}
