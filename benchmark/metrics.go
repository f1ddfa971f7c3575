package main

// metricDef declares one metric: its name, unit, which way is better, the
// regression bound (end-to-end metrics only), and — for a layer metric —
// the end-to-end metric and workloads it is expected to move. BENCHMARK.json
// is these tables rendered by describeJSON, and a unit test keeps the two in
// step.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd are the seven figures a user of the system would see. Every
// workload reports all of them.
//
// A bound belongs to a metric, so its noisiest workload has to fit under
// it, and it is set from what was measured: about three times the widest
// spread (interquartile range ÷ median of ten runs on ten seeds) that any
// workload showed in any set taken, on a box whose raw rates of identical
// runs were 20 % apart at the time. ISSUE 13 asked for 0.10 on the host-time
// metrics and the latencies and 0.02 on the heap; a first version carried
// 0.10 on proc_rounds_per_s and the driver's check refused it (one set of
// ten runs of sim-scale-sharded spread by 12.7 %). Only delivered_ratio
// keeps the issue's bound. The README ("Estimators that were fixed" and the
// spread table) has the measurements:
// proc_rounds_per_s: calibrated rates spread by 2–5 % in most sets and by up
// to 7.4 % (bus-zipf-churn) and 7.8 % (sim-scale-sharded) in rough ones;
// cpu_us_per_proc_round: the live cluster's CPU per round spread by 7–16 %
// fully calibrated and its median moved by 21 % between two hours; it is now
// half-calibrated (meter.go), 4–12 %, and 15 % between the extremes of six
// sets (the sim and bus cells: 2–8 %);
// heap_bytes_per_process: bus-zipf-churn's heap differs by 1.3–2.0 % from
// seed to seed for structural reasons no estimator removes (the other cells:
// at most 1.2 %);
// deliver_ms_p50 and deliver_ms_p99: wall latency on live spreads by 2–8 %
// (the simulated latencies by at most 2 %);
// setup_s: the driver's contract wants it to carry the largest bound, and a
// build of a millisecond or two spreads by 9–18 %.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		moves: "reference-seconds from nothing to ready-to-measure: construct and seed views, warm-up excluded"},
	{name: "proc_rounds_per_s", unit: "1/s", better: "higher", bound: 0.25,
		moves: "process gossip periods executed per reference-second (live: per wall second)"},
	{name: "cpu_us_per_proc_round", unit: "us", better: "lower", bound: 0.25,
		moves: "process CPU (user+system) per process gossip period, calibrated: the paper's 'lightweight' figure"},
	{name: "heap_bytes_per_process", unit: "B", better: "lower", bound: 0.06,
		moves: "live heap after a forced collection at the end of the window, per process"},
	{name: "delivered_ratio", unit: "ratio", better: "higher", bound: 0.005,
		moves: "first deliveries ÷ (events × processes alive and subscribed at the deadline)"},
	{name: "deliver_ms_p50", unit: "ms", better: "lower", bound: 0.25,
		moves: "publish → one process's delivery, median; simulated ms on sim/bus, wall ms on live"},
	{name: "deliver_ms_p99", unit: "ms", better: "lower", bound: 0.25,
		moves: "publish → one process's delivery, 99th percentile; simulated ms on sim/bus, wall ms on live (median over the one-second segments)"},
}

// Workload name shorthands for the interaction map.
const (
	wSeq   = "sim-loaded-seq"
	wWan   = "sim-event-wan"
	wScale = "sim-scale-sharded"
	wBus   = "bus-zipf-churn"
	wLive  = "live-udp-cluster"
)

// perLayer are the traced run's figures, one group per module. A layer
// metric that does not apply to a workload reads 0 there; the README's
// interaction map lists those predicted-zero and predicted-no-change cells.
var perLayer = []metricDef{
	{name: "rng.sample_ns", unit: "ns", better: "lower", moves: "proc_rounds_per_s on every sim/bus workload equally"},
	{name: "rng.zipf_ns", unit: "ns", better: "lower", moves: "setup_s on " + wBus + "; nothing else"},

	{name: "buffer.keyed_add_ns", unit: "ns", better: "lower", moves: "proc_rounds_per_s on " + wSeq + "; ~nothing on " + wScale},
	{name: "buffer.digest_contains_ns", unit: "ns", better: "lower", moves: "proc_rounds_per_s on " + wSeq + "; ~nothing on " + wScale},
	{name: "buffer.archive_get_ns", unit: "ns", better: "lower", moves: "proc_rounds_per_s on " + wSeq + " (retransmit serving); 0 on " + wScale},

	{name: "membership.pick_ns", unit: "ns", better: "lower", moves: "proc_rounds_per_s on all sim workloads"},
	{name: "membership.merge_ns", unit: "ns", better: "lower", moves: "proc_rounds_per_s on all sim workloads"},
	{name: "membership.truncate_ns", unit: "ns", better: "lower", moves: "proc_rounds_per_s on all sim workloads"},
	{name: "membership.join_us", unit: "us", better: "lower", moves: "proc_rounds_per_s and setup_s on " + wBus + " only"},
	{name: "membership.unsub_us", unit: "us", better: "lower", moves: "proc_rounds_per_s on " + wBus + " only"},

	{name: "core.tick_ns", unit: "ns", better: "lower", moves: "proc_rounds_per_s on " + wSeq + " (largest share), " + wScale + "; cpu_us_per_proc_round on " + wLive},
	{name: "core.handle_gossip_ns", unit: "ns", better: "lower", moves: "proc_rounds_per_s on " + wSeq + " (largest share); cpu_us_per_proc_round on " + wLive},
	{name: "core.handle_request_ns", unit: "ns", better: "lower", moves: "proc_rounds_per_s on " + wSeq + ", " + wWan + "; 0 on " + wScale},
	{name: "core.handle_reply_ns", unit: "ns", better: "lower", moves: "proc_rounds_per_s on " + wSeq + ", " + wWan + "; 0 on " + wScale},
	{name: "core.msgs_per_proc_round", unit: "count", better: "lower", moves: "proc_rounds_per_s everywhere (work per period); deterministic on sim/bus"},
	{name: "core.duplicate_ratio", unit: "ratio", better: "lower", moves: "cpu_us_per_proc_round: wasted handling; deterministic on sim/bus"},
	{name: "core.retransmit_per_delivery", unit: "ratio", better: "lower", moves: "deliver_ms_p99 on " + wSeq + ", " + wWan + " (pulled deliveries are late)"},
	{name: "core.overflow_per_event", unit: "count", better: "lower", moves: "delivered_ratio on " + wSeq + " (|events|m evictions)"},

	{name: "fault.classify_ns", unit: "ns", better: "lower", moves: "proc_rounds_per_s on " + wWan + " (topology + partition + delay draw); small elsewhere"},
	{name: "fault.drop_ratio", unit: "ratio", better: "lower", moves: "delivered_ratio, deliver_ms_p99; set by the workload's ε, should not move"},
	{name: "fault.partition_drop_ratio", unit: "ratio", better: "lower", moves: wWan + " only; 0 elsewhere"},
	{name: "event.schedule_ns", unit: "ns", better: "lower", moves: "proc_rounds_per_s on " + wWan + " only"},
	{name: "event.pop_ns", unit: "ns", better: "lower", moves: "proc_rounds_per_s on " + wWan + " only"},
	{name: "event.timers_per_proc_round", unit: "count", better: "lower", moves: wWan + " only; 0 on " + wSeq},
	{name: "sim.late_ratio", unit: "ratio", better: "lower", moves: "deliver_ms_p50 on " + wWan + "; 0 elsewhere"},
	{name: "sim.inflight_peak", unit: "count", better: "lower", moves: "heap_bytes_per_process on " + wWan + "; 0 elsewhere"},

	{name: "sim.build_us_per_process", unit: "us", better: "lower", moves: "setup_s on all sim workloads, most on " + wScale},
	{name: "sim.publish_us", unit: "us", better: "lower", moves: "proc_rounds_per_s on " + wSeq + " (4 per period)"},
	{name: "sim.round_ms_p50", unit: "ms", better: "lower", moves: "proc_rounds_per_s on all sim workloads"},
	{name: "sim.round_ms_tail", unit: "ms", better: "lower", moves: "proc_rounds_per_s spread; GC and barrier stalls"},
	{name: "sim.overhead_share", unit: "ratio", better: "lower", moves: "proc_rounds_per_s: the executor residual (1 − layer replay ÷ driver cost per process period)"},
	{name: "sim.parallel_efficiency", unit: "ratio", better: "higher", moves: "proc_rounds_per_s and cpu_us_per_proc_round on " + wScale},
	{name: "idmap.lookup_ns", unit: "ns", better: "lower", moves: "proc_rounds_per_s on " + wScale + ", " + wBus},
	{name: "pool.get_ns", unit: "ns", better: "lower", moves: "setup_s on " + wScale},
	{name: "pool.hit_ratio", unit: "ratio", better: "higher", moves: "setup_s, heap_bytes_per_process on " + wScale},

	{name: "pubsub.step_ms_p50", unit: "ms", better: "lower", moves: "proc_rounds_per_s on " + wBus},
	{name: "pubsub.step_ms_tail", unit: "ms", better: "lower", moves: "proc_rounds_per_s spread on " + wBus},
	{name: "pubsub.subscribe_us", unit: "us", better: "lower", moves: "setup_s, proc_rounds_per_s on " + wBus},
	{name: "pubsub.cancel_us", unit: "us", better: "lower", moves: "proc_rounds_per_s on " + wBus},
	{name: "pubsub.publish_us", unit: "us", better: "lower", moves: "proc_rounds_per_s on " + wBus},
	{name: "pubsub.cancel_refused_ratio", unit: "ratio", better: "lower", moves: "delivered_ratio denominator on " + wBus},

	{name: "wire.encode_ns", unit: "ns", better: "lower", moves: "cpu_us_per_proc_round on " + wLive + "; no sim/bus workload encodes"},
	{name: "wire.decode_ns", unit: "ns", better: "lower", moves: "cpu_us_per_proc_round on " + wLive},
	{name: "wire.bytes_per_msg", unit: "B", better: "lower", moves: "transport.bytes_per_delivery on " + wLive},
	{name: "transport.udp_sendbatch_us", unit: "us", better: "lower", moves: "cpu_us_per_proc_round on " + wLive + "; predicted no change in deliver_ms_*"},
	{name: "transport.inproc_sendbatch_us", unit: "us", better: "lower", moves: "nothing end to end here (the in-process fabric is not covered); reference for the UDP figure"},
	{name: "transport.datagrams_per_proc_round", unit: "count", better: "lower", moves: "cpu_us_per_proc_round on " + wLive},
	{name: "transport.bytes_per_delivery", unit: "B", better: "lower", moves: "cpu_us_per_proc_round on " + wLive},
	{name: "transport.drop_ratio", unit: "ratio", better: "lower", moves: "delivered_ratio on " + wLive + "; 0 on loopback"},
	{name: "live.publish_us", unit: "us", better: "lower", moves: "deliver_ms_p50 on " + wLive + " (negligible share)"},
	{name: "live.round_slip_ratio", unit: "ratio", better: "higher", moves: "proc_rounds_per_s, deliver_ms_p99 on " + wLive},
	{name: "live.dropped_deliveries", unit: "count", better: "lower", moves: "delivered_ratio on " + wLive},
	{name: "live.deliver_ms_p99_window", unit: "ms", better: "lower", moves: "deliver_ms_p99 on " + wLive + ", which is the median of the segments' p99s: this is the p99 over the window as one sample, where one stall of the host shows"},
	{name: "loadgen.late_ms_tail", unit: "ms", better: "lower", moves: "deliver_ms_p99 on " + wLive + ": generator lateness is charged to latency"},

	{name: "replay.msg_rate_error", unit: "ratio", better: "lower", moves: "none: layer replay vs driver messages per process period; the run fails above 0.02"},
	{name: "host.calib_floor_ms", unit: "ms", better: "lower", moves: "machine state: the kernel's fastest sample"},
	{name: "host.calib_median_ms", unit: "ms", better: "lower", moves: "machine state: the kernel's median sample"},
	{name: "host.burst_share", unit: "ratio", better: "lower", moves: "machine state: kernel samples over 1.15 × floor"},
	{name: "host.proc_rounds_per_wall_s", unit: "1/s", better: "higher", moves: "proc_rounds_per_s before calibration"},
	{name: "host.setup_wall_s", unit: "s", better: "lower", moves: "setup_s before calibration"},
	{name: "host.warmup_s", unit: "s", better: "lower", moves: "harness: wall time of the warm-up, excluded from setup_s"},
	{name: "host.gc_cycles", unit: "count", better: "lower", moves: "harness: collections during the traced window"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", moves: "harness: traced ÷ untraced host time per process period"},
}
