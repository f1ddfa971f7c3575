package main

// busWindow builds a bus, warms it up and runs slices of the window under
// tr (nil: untraced).
func busWindow(p params, cal *calibrator, slices int, tr *tracer) (*driverWindow, *busRun, error) {
	r, warmupS, err := warmBus(p, tr)
	if err != nil {
		return nil, nil, err
	}
	d := &driverWindow{warmupS: warmupS}
	net0, gc0 := r.bus.TotalNetStats(), gcCycles()
	m := newMeter(cal)
	tr.begin("driver.window", 0)
	for s := 0; s < slices; s++ {
		m.beginSlice()
		for i := 0; i < busStepsPerSlice; i++ {
			r.runStep(m, true)
		}
		m.endSlice()
	}
	tr.end(int64(slices * busStepsPerSlice))
	d.w = summarize(m.slices, cal.refS(), true)
	d.net = subNet(r.bus.TotalNetStats(), net0)
	d.gcCycles = gcCycles() - gc0
	return d, r, nil
}

// traceBus is the traced run of the bus workload.
func traceBus(p params) *result {
	res := newTraceResult(wBus)
	cal := newCalibrator(1)
	slices := tracedSlices(busWindowSlices(p), busStepsPerSlice, busDeadline)
	warm := busWarmupSteps(p)

	plain, _, err := busWindow(p, cal, slices, nil)
	if err != nil {
		res.fail("untraced pass: %v", err)
		return res
	}
	tr := newTracer()
	traced, r, err := busWindow(p, cal, slices, tr)
	if err != nil {
		res.fail("traced pass: %v", err)
		return res
	}
	r.fillDelivery(res)
	r.conserved(res)

	rp, err := newBusReplay(r.n, p.seed)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	rp.advance(warm)
	eng0 := rp.engineStats()
	rp.cancels, rp.refused = 0, 0
	rs, replayW := replayWindow(rp, tr, cal, slices, busStepsPerSlice)
	if rp.err != nil {
		res.fail("%v", rp.err)
	}
	traced.eng = subStats(rp.engineStats(), eng0) // the bus does not expose its engines; the replay's are the same protocol
	cfg := rp.cfg
	wireBytes := runLeafProbes(tr, rs.sample, r.n, cfg.Membership.MaxView, cfg.Fanout, p.seed)

	fillSpanLayers(res, tr.spans)
	fillSimLayers(res, tr.spans, plain, traced, rs, replayW, 1)
	// The executor residual is defined for the simulator's executors.
	res.metrics["sim.overhead_share"], res.metrics["sim.parallel_efficiency"] = 0, 0
	spanPercentiles(res, tr.spans, "pubsub.step", "pubsub.step_ms_p50", "pubsub.step_ms_tail")
	res.metrics["pubsub.cancel_refused_ratio"] = ratio(float64(r.refused), float64(r.cancels))
	res.counts["pubsub.cancel_refused_ratio.n"] = int64(r.cancels)
	res.note("cancel calls refused: bus %d of %d, layer replay %d of %d", r.refused, r.cancels, rp.refused, rp.cancels)
	t := selfTimes(tr.spans)
	res.metrics["host.setup_wall_s"] = float64(t["pubsub.build"].selfNs) / 1e9
	res.metrics["wire.bytes_per_msg"] = wireBytes
	fillHost(res, cal)
	finishTrace(res, tr, p)
	return res
}
