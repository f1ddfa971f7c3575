package golden

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pbcast"
	"repro/internal/pubsub"
	"repro/internal/sim"
)

// Scenarios returns the registry of named adversarial workloads, in tape
// order. Each call builds the slice fresh so callers can mutate their copy
// (the golden tests override RunConfig per variant).
//
// The scenarios are deliberately adversarial: each one leans on a failure
// mode the paper analyzes — churn, skewed popularity, partitions, buffer
// saturation, loss-driven retransmission, sub-round latency, unsynchronized
// periods — so the tapes pin exactly the behavior unit tests cannot.
// docs/SCENARIOS.md documents each one's topology, fault schedule, and
// expected qualitative outcome.
func Scenarios() []Scenario {
	return []Scenario{
		wanPartitionHeal(),
		bufferPressure(),
		retransmitStorm(),
		eventMsDelay(),
		asyncWavefront(),
		bimodalBaseline(),
		flashCrowdChurn(),
		hotspotZipf(),
		millionLiteChurn(),
	}
}

// Lookup resolves a scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// wanPartitionHeal cuts the WAN link of a two-datacenter topology for
// rounds [8,16) while notifications publish on both sides, then heals.
// Cross-side dissemination stalls during the cut and recovers through the
// retransmission pull once digests circulate again. Rounds-granular and
// synchronous, so the tape must reproduce byte-for-byte on both clocks.
func wanPartitionHeal() Scenario {
	cfg := core.DefaultConfig()
	cfg.Retransmit = true
	cfg.MaxRetransmitPerGossip = 8
	return Scenario{
		Name: "wan-partition-heal",
		Doc:  "two-cluster WAN cut rounds 8-16 with mid-partition publishes, retransmit-driven heal",
		Kind: KindCluster,
		Opts: sim.Options{
			N:       200,
			Seed:    42,
			Lpbcast: cfg,
			Epsilon: 0.05,
			Tau:     0.01,
			Horizon: 28,
			Topology: fault.TwoCluster{
				Split: 100,
				Local: fault.LinkProfile{Epsilon: -1},
				WAN:   fault.LinkProfile{Epsilon: 0.15, MinDelay: 1, MaxDelay: 3},
			},
			Partitions: []fault.Partition{{From: 8, To: 16, Classes: []fault.LinkClass{fault.LinkWAN}}},
		},
		Publishes: []Publish{
			{Round: 2, Proc: 10}, {Round: 4, Proc: 150},
			{Round: 10, Proc: 10}, {Round: 12, Proc: 150},
			{Round: 18, Proc: 60}, {Round: 20, Proc: 130},
		},
		Rounds:     28,
		BothClocks: true,
		Knobs:      "topo=two-cluster wan-eps=0.15 wan-delay=1..3 partition=wan@8..16 retransmit=on",
	}
}

// bufferPressure saturates the forwarding buffer: |events|m = 1 under a
// sustained publish load, the regime of the paper's Fig. 5 left edge.
// EventsOverflowed climbs and delivery ratios collapse below the
// well-provisioned baseline.
func bufferPressure() Scenario {
	cfg := core.DefaultConfig()
	cfg.MaxEvents = 1
	return Scenario{
		Name: "buffer-pressure",
		Doc:  "|events|m=1 under 3 publishes/round for 10 rounds: overflow-driven loss",
		Kind: KindCluster,
		Opts: sim.Options{
			N:       150,
			Seed:    7,
			Lpbcast: cfg,
			Epsilon: 0.05,
			Horizon: 30,
		},
		Load:   Load{From: 1, To: 10, Rate: 3},
		Rounds: 30,
		Knobs:  "maxevents=1 load=3x10",
	}
}

// retransmitStorm runs the gossip-pull path under ε=0.35 loss with an
// aggressive 2-round re-request timeout: requests, serves, misses, and
// timeout re-arms all fire heavily. RetransmitTimeout counts in the "now"
// the simulator ticks engines with: periods, on either clock.
func retransmitStorm() Scenario {
	cfg := core.DefaultConfig()
	cfg.Retransmit = true
	cfg.RetransmitTimeout = 2
	cfg.MaxRetransmitPerGossip = 8
	return Scenario{
		Name: "retransmit-storm",
		Doc:  "eps=0.35 with 2-round retransmit timeout: heavy request/serve/re-request traffic",
		Kind: KindCluster,
		Opts: sim.Options{
			N:       120,
			Seed:    17,
			Lpbcast: cfg,
			Epsilon: 0.35,
			Horizon: 30,
		},
		Publishes: []Publish{
			{Round: 1, Proc: 3}, {Round: 2, Proc: 40}, {Round: 3, Proc: 77},
			{Round: 4, Proc: 14}, {Round: 5, Proc: 91}, {Round: 6, Proc: 58},
		},
		Rounds: 30,
		Knobs:  "eps=0.35 retransmit=on timeout=2 maxper=8",
	}
}

// eventMsDelay exercises the event clock's millisecond time base: a
// 10-250 ms uniform delay against a 100 ms gossip period, so messages
// straddle period boundaries and arrive between ticks — unreachable on
// the round clock by construction.
func eventMsDelay() Scenario {
	return Scenario{
		Name: "event-ms-delay",
		Doc:  "event clock, 10-250ms uniform delay vs 100ms period: cross-period arrivals",
		Kind: KindCluster,
		Opts: sim.Options{
			N:       100,
			Seed:    23,
			Lpbcast: core.DefaultConfig(),
			Epsilon: 0.05,
			Horizon: 24,
			Delay:   fault.Millis{Model: fault.UniformDelay{Min: 10, Max: 250}},
			RunConfig: sim.RunConfig{
				Clock:    sim.ClockEvent,
				PeriodMs: 100,
			},
		},
		Publishes: []Publish{
			{Round: 1, Proc: 5}, {Round: 2, Proc: 31}, {Round: 3, Proc: 67},
			{Round: 4, Proc: 12}, {Round: 5, Proc: 88}, {Round: 6, Proc: 49},
			{Round: 7, Proc: 73}, {Round: 8, Proc: 20},
		},
		Rounds: 24,
		Knobs:  "clock=event period=100ms delay=10..250ms",
	}
}

// asyncWavefront runs the unsynchronized-period regime (§3.2) with
// crashes: ticks happen in a random per-period order and fresh
// information forwards within the same period (≈2 hops/period).
func asyncWavefront() Scenario {
	return Scenario{
		Name: "async-wavefront",
		Doc:  "unsynchronized gossip periods with crashes: same-period forwarding wavefront",
		Kind: KindCluster,
		Opts: sim.Options{
			N:       100,
			Seed:    29,
			Lpbcast: core.DefaultConfig(),
			Epsilon: 0.05,
			Tau:     0.01,
			Horizon: 24,
			Async:   true,
		},
		Publishes: []Publish{
			{Round: 1, Proc: 2}, {Round: 2, Proc: 50}, {Round: 3, Proc: 97},
			{Round: 4, Proc: 33}, {Round: 5, Proc: 71},
		},
		Rounds: 24,
		Knobs:  "async=on",
	}
}

// bimodalBaseline pins the §6.2 comparison protocol: Bimodal Multicast
// over the lpbcast membership layer, with a 50%-reliable first-phase
// multicast. Small enough to tape every delivery individually.
func bimodalBaseline() Scenario {
	return Scenario{
		Name: "bimodal-baseline",
		Doc:  "pbcast over partial views, 50% first-phase multicast, per-delivery tape",
		Kind: KindCluster,
		Opts: sim.Options{
			N:                  60,
			Seed:               31,
			Protocol:           sim.PbcastPartial,
			Pbcast:             pbcast.DefaultConfig(),
			Epsilon:            0.05,
			Horizon:            20,
			FirstPhaseDelivery: 0.5,
		},
		Publishes:  []Publish{{Round: 1, Proc: 0}, {Round: 3, Proc: 20}, {Round: 5, Proc: 45}},
		Rounds:     20,
		PerProcess: true,
		Knobs:      "proto=pbcast/partial firstphase=0.5",
	}
}

// flashCrowdChurn floods one topic with a burst of subscribers (rounds
// 8-12), then drains them (rounds 20-24): the flash-crowd shape. View
// sizes and delivery counts on the hot topic swell and settle back.
func flashCrowdChurn() Scenario {
	return Scenario{
		Name: "flash-crowd-churn",
		Doc:  "40-subscriber flash crowd onto one topic, then mass leave",
		Kind: KindBus,
		Bus: BusSetup{
			Cfg:      pubsub.Config{Seed: 11, Epsilon: 0.05},
			Workload: pubsub.Workload{Topics: 3, Subscribers: 30, S: 1.0, Seed: 7},
			Publishes: []BusPublish{
				{Round: 2, Rank: 0}, {Round: 6, Rank: 1}, {Round: 10, Rank: 0},
				{Round: 14, Rank: 0}, {Round: 18, Rank: 2}, {Round: 26, Rank: 0},
			},
			Churn: []ChurnPhase{
				{From: 8, To: 12, Joins: 8, TopicRank: 0},
				{From: 20, To: 24, Leaves: 8},
			},
		},
		Rounds: 30,
		Knobs:  "flash=8x5@t000 drain=8x5",
	}
}

// hotspotZipf deploys a Zipf(1.2) popularity skew over 12 topics and
// publishes into the hot one every round: the multi-tenant hotspot the
// paper aims lpbcast at (§1), with the tail topics nearly idle.
func hotspotZipf() Scenario {
	return Scenario{
		Name: "hotspot-zipf",
		Doc:  "Zipf(1.2) over 12 topics, sustained hot-topic publishing",
		Kind: KindBus,
		Bus: BusSetup{
			Cfg:      pubsub.Config{Seed: 13, Epsilon: 0.05},
			Workload: pubsub.Workload{Topics: 12, Subscribers: 150, S: 1.2, Seed: 5},
			Publishes: []BusPublish{
				{Round: 1, Rank: 0}, {Round: 2, Rank: 0}, {Round: 3, Rank: 0},
				{Round: 4, Rank: 0}, {Round: 5, Rank: 0}, {Round: 6, Rank: 0},
				{Round: 7, Rank: 0}, {Round: 8, Rank: 0}, {Round: 9, Rank: 0},
				{Round: 10, Rank: 0}, {Round: 6, Rank: 5}, {Round: 12, Rank: 11},
			},
		},
		Rounds: 25,
		Knobs:  "zipf=1.2 hot=t000x10",
	}
}

// millionLiteChurn cycles steady join+leave churn so member pids recycle
// through the dense index continuously — a scaled-down probe of the
// million-process index-churn path (PR 9) under live pub/sub.
func millionLiteChurn() Scenario {
	return Scenario{
		Name: "million-lite-churn",
		Doc:  "steady 3-join/3-leave churn cycling dense-index slot recycling",
		Kind: KindBus,
		Bus: BusSetup{
			Cfg:      pubsub.Config{Seed: 3, Epsilon: 0.05},
			Workload: pubsub.Workload{Topics: 4, Subscribers: 40, S: 0.8, Seed: 3},
			Publishes: []BusPublish{
				{Round: 5, Rank: 1}, {Round: 15, Rank: 1}, {Round: 25, Rank: 1},
			},
			Churn: []ChurnPhase{
				{From: 1, To: 30, Joins: 3, TopicRank: 1, Leaves: 3},
			},
		},
		Rounds: 32,
		Knobs:  "churn=3join/3leave@t001x30",
	}
}
