package sim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/rng"
)

// stepper is what a tape needs of a cluster: the executor's own, or the
// reference walk over one (seqRef).
type stepper interface {
	PublishAt(i int) (proto.Event, error)
	RunRound()
	DeliveredCount(id proto.EventID) int
	NetStats() NetStats
	N() int
	Process(i int) Process
	HasDelivered(pid proto.ProcessID, id proto.EventID) bool
}

// eventTape runs one cluster for rounds periods and returns the traced
// event's per-round delivery tape plus the per-round network counters —
// the byte-level observables the bridge and equivalence tests compare.
func eventTape(t *testing.T, opts Options, rounds int) (tape []int, nets []NetStats) {
	t.Helper()
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return tapeOf(t, c, rounds)
}

// refTape is eventTape with the cluster stepped by the sequential
// reference walk.
func refTape(t *testing.T, opts Options, rounds int) (tape []int, nets []NetStats) {
	t.Helper()
	c, err := newSeqRef(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tapeOf(t, c, rounds)
}

func tapeOf(t *testing.T, c stepper, rounds int) (tape []int, nets []NetStats) {
	t.Helper()
	ev, err := c.PublishAt(0)
	if err != nil {
		t.Fatal(err)
	}
	tape = append(tape, c.DeliveredCount(ev.ID))
	nets = append(nets, c.NetStats())
	for r := 0; r < rounds; r++ {
		c.RunRound()
		tape = append(tape, c.DeliveredCount(ev.ID))
		nets = append(nets, c.NetStats())
		assertConserved(t, c.NetStats())
	}
	return tape, nets
}

// bridgeObs is what the bridge compares: the traced event's per-round
// delivery tape and the per-round network counters, and after the run who
// delivered the event and every engine's counters.
type bridgeObs struct {
	tape      []int
	nets      []NetStats
	delivered []bool
	stats     []core.Stats
}

func bridgeRun(t *testing.T, c stepper, rounds int) bridgeObs {
	t.Helper()
	var o bridgeObs
	o.tape, o.nets = tapeOf(t, c, rounds)
	traced := proto.EventID{Origin: 1, Seq: 1} // tapeOf publishes it at process 0
	for i := 0; i < c.N(); i++ {
		o.delivered = append(o.delivered, c.HasDelivered(processID(i+1), traced))
		o.stats = append(o.stats, c.Process(i).(*core.Engine).Stats())
	}
	if o.tape[rounds] == 0 || !o.delivered[0] {
		t.Fatalf("the traced event %v was never delivered: tape %v", traced, o.tape)
	}
	return o
}

// TestEventBridgeMatchesRoundClock is the bridge oracle, and the table of
// period-length invariance: the round clock is the event clock with one
// instant per period, so under a rounds-granular delay model — every
// arrival on a period boundary, arrivals before ticks — a synchronous run
// gives the same bytes on either clock, whatever the period's length in
// virtual milliseconds and whatever the shard count. The reference is the
// round clock's sequential walk; against it run the executor on the round
// clock and on the event clock at periods from one instant to the longest
// the configuration admits (the in-flight ring is keyed by instant, so a
// delayed row is refused once MaxDelay periods outgrow netmodel.MaxSpanMs —
// those combinations are skipped, and the widest period that fits runs in
// their place), each on one shard and on three. Covers the zero-delay §5.1
// network, both delay-model kinds, a delayed topology with and without a
// scheduled partition, and the retransmission chase.
func TestEventBridgeMatchesRoundClock(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"zero-delay", func(o *Options) {}},
		{"fixed", func(o *Options) { o.Delay = fault.FixedDelay{Rounds: 2} }},
		{"uniform", func(o *Options) { o.Delay = fault.UniformDelay{Min: 0, Max: 3} }},
		{"uniform:1-4", func(o *Options) { o.Delay = fault.UniformDelay{Min: 1, Max: 4} }},
		{"two-cluster", func(o *Options) { o.Topology = wanTopologyFor(o.N) }},
		{"two-cluster/partition", func(o *Options) {
			o.Topology = wanTopologyFor(o.N)
			o.Partitions = []fault.Partition{{From: 3, To: 6, Classes: []fault.LinkClass{fault.LinkWAN}}}
		}},
		{"retransmit", func(o *Options) {
			o.Epsilon = 0.15
			o.Lpbcast.AssumeFromDigest = false
			o.Lpbcast.Retransmit = true
			o.Lpbcast.ArchiveSize = 500
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := DefaultOptions(250)
			opts.Seed = 17
			opts.Horizon = 12
			opts.Lpbcast.AssumeFromDigest = true
			tc.mut(&opts)

			ref, err := newSeqRef(opts)
			if err != nil {
				t.Fatal(err)
			}
			want := bridgeRun(t, ref, 12)

			ran := 0
			for _, periodMs := range []int{0, 1, 7, 100, netmodel.MaxSpanMs / 4, maxPeriodMs} {
				for _, workers := range []int{1, 3} {
					o := opts
					o.Workers = workers
					if periodMs > 0 { // 0: the round clock itself, through the executor
						o.Clock, o.PeriodMs = ClockEvent, periodMs
					}
					if d := o.network().EffectiveDelay(); d != nil && d.MaxDelay()*periodMs > netmodel.MaxSpanMs {
						continue
					}
					c, err := NewCluster(o)
					if err != nil {
						t.Fatal(err)
					}
					got := bridgeRun(t, c, 12)
					c.Close()
					assertIdentical(t, fmt.Sprintf("bridge clock=%v period=%dms workers=%d", o.Clock, periodMs, workers), want, got)
					ran++
				}
			}
			if ran < 10 {
				t.Fatalf("only %d of the table's runs were admitted", ran)
			}
		})
	}
}

// wheelLagDelay is a millisecond delay model that delivers instantly
// before round from and one millisecond late from then on.
type wheelLagDelay struct{ from uint64 }

func (d wheelLagDelay) Delay(_, _ proto.ProcessID, now uint64, _ *rng.Source) int {
	if now < d.from {
		return 0
	}
	return 1
}
func (wheelLagDelay) MaxDelay() int   { return 1 }
func (wheelLagDelay) Validate() error { return nil }

// TestEventWheelKeepsUpWithQuietPeriods: the ring's wheel advances when an
// arrival pops, and a marker is scheduled relative to the wheel's own now.
// Through a stretch of more than 2^24 virtual ms without a delayed message
// — nineteen periods of 2^20 ms here — the wheel must follow the cluster to
// each period boundary, or the first delayed message afterwards is "beyond
// the horizon" of a wheel still at instant 0. On the async event clock it
// was: the walk only read the wheel when something was pending.
func TestEventWheelKeepsUpWithQuietPeriods(t *testing.T) {
	t.Parallel()
	for _, async := range []bool{false, true} {
		opts := DefaultOptions(50)
		opts.Seed = 3
		opts.Async = async
		opts.Clock = ClockEvent
		opts.PeriodMs = maxPeriodMs
		opts.Delay = fault.Millis{Model: wheelLagDelay{from: 20}}
		label := fmt.Sprintf("async=%v", async)
		refT, refNets := refTape(t, opts, 24)
		for _, workers := range []int{1, 3} {
			o := opts
			o.Workers = workers
			tape, nets := eventTape(t, o, 24)
			assertIdentical(t, fmt.Sprintf("%s tape workers=%d", label, workers), refT, tape)
			assertIdentical(t, fmt.Sprintf("%s netstats workers=%d", label, workers), refNets, nets)
		}
		if late := refNets[24].DeliveredLate; late == 0 {
			t.Errorf("%s: no message was ever delayed: %+v", label, refNets[24])
		}
	}
}

// TestEventShardedMatchesSequential is the event clock's correctness
// oracle: the executor must reproduce the sequential event-queue reference
// bit for bit — across worker counts, delay units (rounds and virtual
// milliseconds), and fault dimensions.
func TestEventShardedMatchesSequential(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"zero-delay", func(o *Options) {}},
		{"ms-fixed", func(o *Options) { o.Delay = fault.Millis{Model: fault.FixedDelay{Rounds: 30}} }},
		{"ms-uniform", func(o *Options) { o.Delay = fault.Millis{Model: fault.UniformDelay{Min: 10, Max: 250}} }},
		{"rounds-uniform", func(o *Options) { o.Delay = fault.UniformDelay{Min: 0, Max: 2} }},
		{"crashes", func(o *Options) { o.Tau = 0.02 }},
		{"ms-retransmit", func(o *Options) {
			o.Delay = fault.Millis{Model: fault.UniformDelay{Min: 5, Max: 120}}
			o.Epsilon = 0.15
			o.Lpbcast.AssumeFromDigest = false
			o.Lpbcast.Retransmit = true
			o.Lpbcast.ArchiveSize = 500
			o.Lpbcast.RetransmitTimeout = 300 // ms: three periods
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := DefaultOptions(250)
			opts.Seed = 17
			opts.WarmupRounds = 2
			opts.Lpbcast.AssumeFromDigest = true
			tc.mut(&opts)
			opts.Clock = ClockEvent
			assertMatchesRef(t, "event infection", opts, 10, 2, 0, 1, 2, 3, 8, 250)
		})
	}
}

// TestEventShardedMatchesSequential10k is the acceptance-scale event run
// (see bigN): bit-identical to the sequential event reference at N=10,000,
// with a millisecond delay model in force.
func TestEventShardedMatchesSequential10k(t *testing.T) {
	t.Parallel()
	n := bigN()
	opts := DefaultOptions(n)
	opts.Seed = 3
	opts.Lpbcast.AssumeFromDigest = true
	opts.Delay = fault.Millis{Model: fault.UniformDelay{Min: 10, Max: 180}}
	// 15 periods: the paper's ~log_F(n) infection horizon plus the up-to-
	// two periods the 10-180ms delays keep each hop in the air.
	opts.Clock = ClockEvent
	seq := assertMatchesRef(t, fmt.Sprintf("event infection@%d", n), opts, 15, 1, shardCounts(runtime.GOMAXPROCS(0))...)
	if last := seq.PerRound[len(seq.PerRound)-1]; last < float64(n)*0.95 {
		t.Errorf("only %v of %d infected; dissemination failed", last, n)
	}
}

// TestEventReuseWithPoison10k extends the poisoned-reuse property to the
// event clock at acceptance scale: drained in-flight instants have their
// recycled slots poisoned at the end of every period, so any consumer
// holding an arrival past its instant diverges loudly from the sequential
// reference.
func TestEventReuseWithPoison10k(t *testing.T) {
	t.Parallel()
	for _, async := range []bool{false, true} {
		async := async
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			t.Parallel()
			n := bigN()
			opts := DefaultOptions(n)
			opts.Seed = 3
			opts.Async = async
			opts.Clock = ClockEvent
			opts.Lpbcast.AssumeFromDigest = true
			opts.Delay = fault.Millis{Model: fault.UniformDelay{Min: 10, Max: 180}}
			opts.PoisonRecycled = true
			// 4: explicitly sharded, even on a single-core runner.
			assertMatchesRef(t, fmt.Sprintf("event poisoned reuse@%d", n), opts, 10, 1, shardCounts(4)...)
		})
	}
}

// TestEventAsyncMatchesSequential: the async event mode — per-process
// static phase offsets inside the period, arrivals interleaved between
// tick waves at their exact instants — must be identical between the
// sequential reference walk and the executor's wavefront on any shard count.
func TestEventAsyncMatchesSequential(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"zero-delay", func(o *Options) {}},
		{"ms-fixed", func(o *Options) { o.Delay = fault.Millis{Model: fault.FixedDelay{Rounds: 40}} }},
		{"ms-uniform", func(o *Options) { o.Delay = fault.Millis{Model: fault.UniformDelay{Min: 5, Max: 220}} }},
		{"rounds-fixed", func(o *Options) { o.Delay = fault.FixedDelay{Rounds: 1} }},
		{"crashes", func(o *Options) { o.Tau = 0.02 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 17} {
				opts := asyncOpts(250, seed)
				opts.WarmupRounds = 2
				tc.mut(&opts)
				opts.Clock = ClockEvent
				ref := assertMatchesRef(t, fmt.Sprintf("async event seed=%d", seed), opts, 10, 2, 0, 1, 3, 8)
				if last := ref.PerRound[len(ref.PerRound)-1]; last < 250*0.9 {
					t.Errorf("seed=%d: only %v of 250 infected; dissemination failed", seed, last)
				}
			}
		})
	}
}

// TestEventMsDelaySemantics pins what a millisecond delay means on the
// event clock: with ms:fixed:30 under a 100ms period, gossip emitted at a
// period boundary arrives 30 virtual ms later — inside the next period,
// before its ticks — so round 1 ends with everything in flight and round
// 2 both delivers the late arrivals and forwards them on the same walk.
func TestEventMsDelaySemantics(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions(64)
	opts.Seed = 4
	opts.Epsilon = 0
	opts.Tau = 0
	opts.Clock = ClockEvent
	opts.Lpbcast.AssumeFromDigest = true
	opts.Delay = fault.Millis{Model: fault.FixedDelay{Rounds: 30}}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ev, err := c.PublishAt(0)
	if err != nil {
		t.Fatal(err)
	}
	c.RunRound() // period 1: ticks at 100ms, arrivals due 130ms — in flight
	if got := c.nowMs; got != 100 {
		t.Errorf("after one period NowMs = %d, want 100", got)
	}
	if got := c.DeliveredCount(ev.ID); got != 1 {
		t.Errorf("round 1: delivered to %d processes, want just the publisher", got)
	}
	s := c.NetStats()
	if s.InFlight == 0 || s.Delivered != 0 {
		t.Errorf("round 1: want all traffic in flight, got %+v", s)
	}
	c.RunRound() // period 2: 130ms arrivals land, 200ms ticks forward them
	if got := c.DeliveredCount(ev.ID); got <= 1 {
		t.Errorf("round 2: delayed gossip arrived nowhere (delivered=%d)", got)
	}
	s = c.NetStats()
	if s.DeliveredLate == 0 || s.DeliveredLate != s.Delivered {
		t.Errorf("round 2: every ms-delayed delivery is late, got %+v", s)
	}
	assertConserved(t, s)
}

// TestEventLongPeriodCrossesWheelRotation runs the event executor with the
// period at the maxPeriodMs cap, so virtual time crosses the wheel's 2^24
// top-level rotation boundary inside ~16 periods — the regime where Next's
// wrapped level-2 scan is load-bearing. Before that scan existed, the run
// panicked ("pending timers but no occupied slot") at the boundary.
func TestEventLongPeriodCrossesWheelRotation(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions(64)
	opts.Seed = 5
	opts.Clock = ClockEvent
	opts.PeriodMs = maxPeriodMs
	opts.Lpbcast.AssumeFromDigest = true
	opts.Delay = fault.Millis{Model: fault.UniformDelay{Min: 10, Max: 180}}
	const rounds = 20 // 20 * 2^20 ms crosses the 2^24 boundary at period 17
	refT, refNets := refTape(t, opts, rounds)
	for _, workers := range []int{0, 4} {
		o := opts
		o.Workers = workers
		c, err := NewCluster(o)
		if err != nil {
			t.Fatal(err)
		}
		tape, nets := tapeOf(t, c, rounds)
		if got, want := c.nowMs, uint64(rounds)*maxPeriodMs; got != want {
			t.Errorf("workers=%d: NowMs = %d, want %d", workers, got, want)
		}
		c.Close()
		assertIdentical(t, fmt.Sprintf("rotation-crossing tape workers=%d", workers), refT, tape)
		assertIdentical(t, fmt.Sprintf("rotation-crossing netstats workers=%d", workers), refNets, nets)
	}
	if last := refT[len(refT)-1]; last < 60 {
		t.Errorf("only %d of 64 delivered after %d long periods", last, rounds)
	}
}

// TestEventRoundAllocs is the event-scheduler allocation gate: once the
// cluster reaches steady state, a synchronous event-clock round — marker
// pops, arrival mini-rounds, emission, and the boundary barrier — must not allocate
// more than twice, on one shard (no option set) and on four alike (the
// steady-event-round bench entries gate the same bound in CI).
func TestEventRoundAllocs(t *testing.T) {
	for _, workers := range []int{0, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := DefaultOptions(1_000)
			opts.Seed = 9
			opts.Tau = 0
			opts.Clock = ClockEvent
			opts.Workers = workers
			opts.Lpbcast.AssumeFromDigest = true
			opts.Delay = fault.Millis{Model: fault.UniformDelay{Min: 10, Max: 180}}
			if allocs := steadyRoundAllocs(t, opts); allocs > 2 {
				t.Errorf("steady-state event round allocates %v times, want <= 2", allocs)
			}
		})
	}
}

// TestEventAsyncPoisonSparesBodiesInFlight: the end-of-period flush leaves
// the last instant's arrivals on the hop queue, and an arrival's gossip
// lives in its sender's arena, shared with envelopes still in the air.
// Poisoning must reach it through the arena, when it recycles the
// gossip's generation — never through the queue or the ring. The system is small on purpose: with fewer processes than phases,
// most periods end on an arrival rather than on a tick (at N=10,000 some
// process always ticks at the period's last instant, and the flush finds
// nothing).
func TestEventAsyncPoisonSparesBodiesInFlight(t *testing.T) {
	t.Parallel()
	opts := asyncOpts(40, 3)
	opts.Clock = ClockEvent
	opts.Delay = fault.Millis{Model: fault.UniformDelay{Min: 10, Max: 180}}
	opts.PoisonRecycled = true
	ref := assertMatchesRef(t, "poisoned async event", opts, 12, 2, shardCounts(4)...)
	if last := ref.PerRound[len(ref.PerRound)-1]; last < 36 {
		t.Errorf("only %v of 40 infected; dissemination failed", last)
	}
}
