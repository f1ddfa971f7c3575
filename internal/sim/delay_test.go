package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netmodel"
	"repro/internal/proto"
)

// processID converts an int to a proto.ProcessID (simulated ids are 1..N).
func processID(i int) proto.ProcessID { return proto.ProcessID(i) }

// bigN returns the system size of the large-scale equivalence tests: the
// N=10,000 acceptance scale normally, shrunk under -short so PR CI stays
// fast. The nightly workflow and the plain `go test ./...` tier-1 run use
// the full size.
func bigN() int {
	if testing.Short() {
		return 2_000
	}
	return 10_000
}

// TestParallelDelayMatchesSequentialInfection is the delay tentpole's
// correctness oracle: with a delay model, a topology, or both in force,
// the executor must reproduce the sequential reference walk's infection
// traces exactly, across protocols, delay-model kinds and shard counts.
func TestParallelDelayMatchesSequentialInfection(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"fixed", func(o *Options) { o.Delay = fault.FixedDelay{Rounds: 1} }},
		{"uniform", func(o *Options) { o.Delay = fault.UniformDelay{Min: 0, Max: 3} }},
		{"uniform/retransmit", func(o *Options) {
			o.Delay = fault.UniformDelay{Min: 0, Max: 2}
			o.Epsilon = 0.15
			o.Lpbcast.AssumeFromDigest = false
			o.Lpbcast.Retransmit = true
			o.Lpbcast.ArchiveSize = 500
		}},
		{"two-cluster", func(o *Options) { o.Topology = wanTopologyFor(o.N) }},
		{"two-cluster/pbcast", func(o *Options) {
			o.Topology = wanTopologyFor(o.N)
			o.Protocol = PbcastPartial
		}},
		{"hierarchical/partition", func(o *Options) {
			o.Topology = fault.Hierarchical{
				ClusterSize: 25, ClustersPerRegion: 2,
				Local:  fault.LinkProfile{Epsilon: -1},
				WAN:    fault.LinkProfile{Epsilon: -1, MinDelay: 1, MaxDelay: 2},
				Global: fault.LinkProfile{Epsilon: 0.2, MinDelay: 2, MaxDelay: 4},
			}
			o.Partitions = []fault.Partition{{From: 3, To: 6, Classes: []fault.LinkClass{fault.LinkGlobal}}}
			o.Tau = 0.02
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := DefaultOptions(250)
			opts.Seed = 17
			opts.Lpbcast.AssumeFromDigest = true
			opts.WarmupRounds = 2
			tc.mut(&opts)
			assertMatchesRef(t, "delayed infection", opts, 12, 2, shardCounts(4)...)
		})
	}
}

// wanTopologyFor builds the standard two-cluster test topology for n
// processes.
func wanTopologyFor(n int) fault.TwoCluster {
	return fault.TwoCluster{
		Split: processID(n / 2),
		Local: fault.LinkProfile{Epsilon: -1},
		WAN:   fault.LinkProfile{Epsilon: 0.15, MinDelay: 1, MaxDelay: 3},
	}
}

// TestParallelDelayMatchesSequential10k extends the delayed-equivalence
// guarantee to the acceptance scale (see bigN), in the synchronous regime.
func TestParallelDelayMatchesSequential10k(t *testing.T) {
	t.Parallel()
	n := bigN()
	opts := DefaultOptions(n)
	opts.Seed = 3
	opts.Lpbcast.AssumeFromDigest = true
	opts.Topology = wanTopologyFor(n)
	seq := assertMatchesRef(t, fmt.Sprintf("delayed infection@%d", n), opts, 14, 1, shardCounts(4)...)
	// The run must actually disseminate across the delayed WAN link;
	// otherwise equality is vacuous.
	if last := seq.PerRound[len(seq.PerRound)-1]; last < float64(n)*0.95 {
		t.Errorf("only %v of %d infected; dissemination failed", last, n)
	}
}

// TestParallelDelayAsyncMatchesSequential is the async-regime counterpart:
// delayed arrivals land at the top of a period as a wave-0 barrier, and
// the executor's wavefront must reproduce the sequential reference exactly
// — at small scale across model kinds, and at acceptance scale.
func TestParallelDelayAsyncMatchesSequential(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		mut  func(*Options)
	}{
		{"fixed", func(o *Options) { o.Delay = fault.FixedDelay{Rounds: 2} }},
		{"two-cluster", func(o *Options) { o.Topology = wanTopologyFor(o.N) }},
		{"two-cluster/partition", func(o *Options) {
			o.Topology = wanTopologyFor(o.N)
			o.Partitions = []fault.Partition{{From: 2, To: 5, Classes: []fault.LinkClass{fault.LinkWAN}}}
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := asyncOpts(250, 17)
			opts.WarmupRounds = 2
			tc.mut(&opts)
			assertMatchesRef(t, "delayed async infection", opts, 10, 2, shardCounts(4)...)
		})
	}
}

// TestParallelDelayAsyncMatchesSequential10k is the async acceptance-scale
// run (see bigN).
func TestParallelDelayAsyncMatchesSequential10k(t *testing.T) {
	t.Parallel()
	n := bigN()
	opts := asyncOpts(n, 3)
	opts.Topology = wanTopologyFor(n)
	seq := assertMatchesRef(t, fmt.Sprintf("delayed async infection@%d", n), opts, 10, 1, shardCounts(4)...)
	if last := seq.PerRound[len(seq.PerRound)-1]; last < float64(n)*0.95 {
		t.Errorf("only %v of %d infected; dissemination failed", last, n)
	}
}

// TestParallelDelayReuseWithPoison extends the poisoned-reuse property
// through the delay queue at acceptance scale, in both regimes: with
// PoisonRecycled on, the envelopes drained from the in-flight ring are
// overwritten with sentinels at the end of every round, so an arrival
// aliased past its round diverges loudly, and each shard's arena poisons
// the gossips it takes back. Byte-identical results prove no consumer holds
// delayed messages too long, and no arena takes a gossip back while a
// delayed copy is still in the air.
func TestParallelDelayReuseWithPoison(t *testing.T) {
	t.Parallel()
	for _, async := range []bool{false, true} {
		async := async
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			t.Parallel()
			n := bigN()
			opts := DefaultOptions(n)
			opts.Seed = 3
			opts.Async = async
			opts.Lpbcast.AssumeFromDigest = true
			opts.Topology = wanTopologyFor(n)
			opts.PoisonRecycled = true
			// 4: explicitly sharded, even on a single-core runner.
			assertMatchesRef(t, fmt.Sprintf("delayed poisoned reuse@%d", n), opts, 10, 1, shardCounts(4)...)
		})
	}
}

// TestParallelDelayWorkerCountInvariance: delayed results are independent
// of the shard count, from the default through one shard per process.
func TestParallelDelayWorkerCountInvariance(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions(200)
	opts.Seed = 99
	opts.Lpbcast.AssumeFromDigest = true
	opts.Delay = fault.UniformDelay{Min: 0, Max: 2}
	assertMatchesRef(t, "delayed infection", opts, 10, 2, 0, 1, 2, 3, 8, 200)
}

// TestParallelDelayNetStats compares the full network counters — not just
// infection traces — between the sequential reference and the executor
// under delay, topology, and partitions, in both regimes, and checks the
// extended conservation invariant after every round.
func TestParallelDelayNetStats(t *testing.T) {
	t.Parallel()
	for _, async := range []bool{false, true} {
		async := async
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			t.Parallel()
			opts := DefaultOptions(150)
			opts.Seed = 5
			opts.Async = async
			opts.Horizon = 12
			opts.Tau = 0.05
			opts.Topology = wanTopologyFor(150)
			opts.Partitions = []fault.Partition{{From: 4, To: 7, Classes: []fault.LinkClass{fault.LinkWAN}}}
			_, refNets := refTape(t, opts, 12)
			seq := refNets[len(refNets)-1]
			for _, workers := range shardCounts(4) {
				o := opts
				o.Workers = workers
				_, nets := eventTape(t, o, 12)
				assertIdentical(t, fmt.Sprintf("net stats workers=%d", workers), refNets, nets)
			}
			if seq.DeliveredLate == 0 {
				t.Errorf("WAN delays produced no late deliveries: %+v", seq)
			}
			if seq.DroppedInPartition == 0 {
				t.Errorf("scheduled partition cut nothing: %+v", seq)
			}
		})
	}
}

// TestEmissionReuseMatchesCloneReference: the executor always runs the
// engines on the recycling append paths; results must be bit-for-bit
// identical to the cloning reference walk (seqref_test.go, emission reuse
// off) in both regimes, with and without delays.
func TestEmissionReuseMatchesCloneReference(t *testing.T) {
	t.Parallel()
	for _, async := range []bool{false, true} {
		for _, delayed := range []bool{false, true} {
			async, delayed := async, delayed
			t.Run(fmt.Sprintf("async=%v/delayed=%v", async, delayed), func(t *testing.T) {
				t.Parallel()
				opts := DefaultOptions(200)
				opts.Seed = 77
				opts.Async = async
				opts.Lpbcast.AssumeFromDigest = true
				opts.WarmupRounds = 2
				if delayed {
					opts.Topology = wanTopologyFor(200)
				}
				assertMatchesRef(t, "emission reuse", opts, 10, 2, shardCounts(runtime.GOMAXPROCS(0))...)
			})
		}
	}
}

// TestDelayedDeliverySemantics pins the delay model's meaning: with a
// fixed one-round delay and a loss-free network, gossip sent in round r is
// handled at the top of round r+1, so the infection frontier advances one
// hop every two rounds relative to tick visibility — and, observably, no
// process beyond the publisher delivers in round 1 while InFlight is
// nonzero, with DeliveredLate accounting for every delayed arrival.
func TestDelayedDeliverySemantics(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions(64)
	opts.Seed = 4
	opts.Epsilon = 0
	opts.Tau = 0
	opts.Lpbcast.AssumeFromDigest = true
	opts.Delay = fault.FixedDelay{Rounds: 1}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ev, err := c.PublishAt(0)
	if err != nil {
		t.Fatal(err)
	}
	c.RunRound() // round 1: everything the publisher gossiped is in flight
	if got := c.DeliveredCount(ev.ID); got != 1 {
		t.Errorf("round 1: delivered to %d processes, want just the publisher", got)
	}
	s := c.NetStats()
	if s.InFlight == 0 || s.Delivered != 0 {
		t.Errorf("round 1: want all traffic in flight, got %+v", s)
	}
	c.RunRound() // round 2: round-1 gossip arrives and spreads the event
	if got := c.DeliveredCount(ev.ID); got <= 1 {
		t.Errorf("round 2: delayed gossip arrived nowhere (delivered=%d)", got)
	}
	s = c.NetStats()
	if s.DeliveredLate == 0 || s.DeliveredLate != s.Delivered {
		t.Errorf("round 2: every delivery is late under a fixed delay, got %+v", s)
	}
	assertConserved(t, s)
}

// TestPartitionCutsAndHeals pins partition semantics end to end: during
// the window no event crosses the cut WAN link, and after the heal the
// backlog of fresh gossip carries it across.
func TestPartitionCutsAndHeals(t *testing.T) {
	t.Parallel()
	const n = 80
	opts := DefaultOptions(n)
	opts.Seed = 6
	opts.Epsilon = 0
	opts.Tau = 0
	opts.Horizon = 30
	opts.Lpbcast.AssumeFromDigest = true
	opts.Topology = fault.TwoCluster{
		Split: processID(n / 2),
		Local: fault.LinkProfile{Epsilon: -1},
		WAN:   fault.LinkProfile{Epsilon: -1},
	}
	opts.Partitions = []fault.Partition{{From: 1, To: 12, Classes: []fault.LinkClass{fault.LinkWAN}}}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ev, err := c.PublishAt(0) // publisher is in cluster A
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 11; r++ { // rounds 1..11 all inside [1, 12)
		c.RunRound()
		assertConserved(t, c.NetStats())
	}
	for p := n/2 + 1; p <= n; p++ {
		if c.HasDelivered(processID(p), ev.ID) {
			t.Fatalf("process %d in cluster B delivered during the partition", p)
		}
	}
	if got := c.NetStats().DroppedInPartition; got == 0 {
		t.Error("partition cut no traffic")
	}
	for r := 0; r < 15; r++ { // healed: the event crosses and saturates B
		c.RunRound()
	}
	if got := c.DeliveredCount(ev.ID); got != n {
		t.Errorf("after heal only %d of %d delivered", got, n)
	}
}

// TestDelayOptionsValidate covers Options.Validate on the new network
// model fields.
func TestDelayOptionsValidate(t *testing.T) {
	t.Parallel()
	base := DefaultOptions(16)
	base.Horizon = 10
	cases := []struct {
		name string
		mut  func(*Options)
		ok   bool
	}{
		{"no network model", func(o *Options) {}, true},
		{"fixed delay", func(o *Options) { o.Delay = fault.FixedDelay{Rounds: 2} }, true},
		{"negative fixed delay", func(o *Options) { o.Delay = fault.FixedDelay{Rounds: -1} }, false},
		{"negative uniform delay", func(o *Options) { o.Delay = fault.UniformDelay{Min: -2, Max: 1} }, false},
		{"inverted uniform delay", func(o *Options) { o.Delay = fault.UniformDelay{Min: 3, Max: 1} }, false},
		{"delay beyond ring bound", func(o *Options) { o.Delay = fault.FixedDelay{Rounds: netmodel.MaxDelayRounds + 1} }, false},
		{"topology", func(o *Options) { o.Topology = wanTopologyFor(16) }, true},
		{"bad topology", func(o *Options) { o.Topology = fault.TwoCluster{} }, false},
		{"negative topology delay", func(o *Options) {
			o.Topology = fault.TwoCluster{Split: 8, WAN: fault.LinkProfile{MinDelay: -1}}
		}, false},
		{"partition", func(o *Options) {
			o.Partitions = []fault.Partition{{From: 2, To: 5}}
		}, true},
		{"partition outside horizon", func(o *Options) {
			o.Partitions = []fault.Partition{{From: 10, To: 12}}
		}, false},
		{"partition outside horizon unbounded ok", func(o *Options) {
			o.Horizon = 0
			o.Partitions = []fault.Partition{{From: 10, To: 12}}
		}, true},
		{"empty partition window", func(o *Options) {
			o.Partitions = []fault.Partition{{From: 5, To: 5}}
		}, false},
		{"overlapping partitions", func(o *Options) {
			o.Partitions = []fault.Partition{{From: 1, To: 5}, {From: 4, To: 8}}
		}, false},
		{"partition class without topology", func(o *Options) {
			o.Partitions = []fault.Partition{{From: 1, To: 5, Classes: []fault.LinkClass{fault.LinkWAN}}}
		}, false},
		{"partition class with topology", func(o *Options) {
			o.Topology = wanTopologyFor(16)
			o.Partitions = []fault.Partition{{From: 1, To: 5, Classes: []fault.LinkClass{fault.LinkWAN}}}
		}, true},
		{"disjoint same-class partitions", func(o *Options) {
			o.Topology = wanTopologyFor(16)
			o.Partitions = []fault.Partition{
				{From: 1, To: 3, Classes: []fault.LinkClass{fault.LinkWAN}},
				{From: 3, To: 6, Classes: []fault.LinkClass{fault.LinkWAN}},
			}
		}, true},
	}
	for _, tc := range cases {
		o := base
		tc.mut(&o)
		err := o.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

// TestMatrixRejectsNegativeDelay: a negative delay= value fails its cells
// loudly through Options.Validate (with the delay visible in the cell
// name) instead of silently sweeping a flat zero-delay network.
func TestMatrixRejectsNegativeDelay(t *testing.T) {
	t.Parallel()
	cells, err := RunMatrix(MatrixSpec{Ns: []int{50}, DelaySpecs: []string{"fixed:-2"}, Rounds: 4, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Err == nil {
		t.Fatalf("negative delay cell did not error: %+v", cells)
	}
	if got := cells[0].Err.Error(); !strings.Contains(got, "negative fixed delay") {
		t.Errorf("cell error %q does not name the negative delay", got)
	}
	if got := cells[0].Name(); !strings.Contains(got, "d=fixed:-2") {
		t.Errorf("cell name %q hides the delay dimension", got)
	}
}

// TestDelayedRoundAllocs is the delay tentpole's allocation gate: with the
// in-flight ring warmed to its high-water capacity, a steady delayed round
// must not allocate more than twice — on four shards, on one, and with no
// option set at all (the steady-delayed-round bench entries gate the same
// bound in CI). "sequential-reuse" is the one-shard row: the name dates
// from the sequential executor and its EmissionReuse flag.
func TestDelayedRoundAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"sequential-reuse", 1},
		{"sharded", 4},
		{"default", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions(1_000)
			opts.Seed = 9
			opts.Tau = 0 // a clean steady state: no crash-time variation
			opts.Lpbcast.AssumeFromDigest = true
			opts.Workers = tc.workers
			opts.Topology = wanTopologyFor(1_000)
			if allocs := steadyRoundAllocs(t, opts); allocs > 2 {
				t.Errorf("steady-state delayed round allocates %v times, want <= 2", allocs)
			}
		})
	}
	// The round clock's arrival markers go through the ring's wheel like the
	// event clock's: one Schedule and one PopAt per pending round, out of a
	// node arena that stops growing once MaxDelay+1 markers have been live.
	t.Run("wheel-markers", func(t *testing.T) {
		opts := DefaultOptions(1_000)
		opts.Seed = 9
		opts.Tau = 0
		opts.Lpbcast.AssumeFromDigest = true
		opts.Delay = fault.UniformDelay{Min: 1, Max: 4}
		if allocs := steadyRoundAllocs(t, opts); allocs != 0 {
			t.Errorf("steady-state delayed round through the wheel allocates %v times, want 0", allocs)
		}
	})
}

// TestOneEmissionPerPeriod pins Fig. 1(b)'s one gossip emission per
// period: whatever the schedule — both regimes, both clocks, one shard and
// three — an engine emits at most one emission of F messages per period,
// with PoisonRecycled on and delayed WAN traffic in the air.
func TestOneEmissionPerPeriod(t *testing.T) {
	t.Parallel()
	for _, async := range []bool{false, true} {
		for _, clock := range []Clock{ClockRounds, ClockEvent} {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("async=%v/clock=%v/workers=%d", async, clock, workers), func(t *testing.T) {
					t.Parallel()
					o := DefaultOptions(120)
					o.Seed = 11
					o.Async, o.Clock, o.Workers = async, clock, workers
					o.PoisonRecycled = true
					o.Lpbcast.AssumeFromDigest = false
					o.Lpbcast.Retransmit = true
					o.Lpbcast.RetransmitTimeout = 2
					o.Topology = wanTopologyFor(o.N)
					c, err := NewCluster(o)
					if err != nil {
						t.Fatal(err)
					}
					sent := make([]uint64, o.N)
					for round := 0; round < 40; round++ {
						if _, err := c.PublishAt(round % o.N); err != nil {
							t.Fatal(err)
						}
						c.RunRound()
						for i := range sent {
							now := c.Process(i).(*core.Engine).Stats().GossipsSent
							if now-sent[i] > uint64(o.Lpbcast.Fanout) {
								t.Fatalf("period %d: process %d sent %d gossips, more than one emission of F=%d",
									c.Now(), i, now-sent[i], o.Lpbcast.Fanout)
							}
							sent[i] = now
						}
					}
					assertConserved(t, c.NetStats())
					if c.NetStats().DeliveredLate == 0 {
						t.Fatalf("the run never used the ring: %+v", c.NetStats())
					}
				})
			}
		}
	}
}
