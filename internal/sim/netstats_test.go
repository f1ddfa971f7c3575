package sim

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
)

// Regression tests for the dispatch accounting fixes: the maxChase cut-off
// used to discard queued messages without a trace, unknown destinations
// were folded into ToCrashed, and the pbcast first-phase multicast
// bypassed NetStats and the loss model entirely.

// assertConserved checks the NetStats invariant: every message that
// reached the network is in exactly one outcome counter or still in
// flight, and late deliveries are a subset of deliveries. It delegates to
// stats.NetStats.Conserved so the check tested here is the same one the
// pubsub Bus and external callers use.
func assertConserved(t *testing.T, s NetStats) {
	t.Helper()
	if err := s.Conserved(); err != nil {
		t.Error(err)
	}
}

// chatter is a foreign Process that answers every message with another
// message, so a round's response cascade never drains and the maxChase
// safety valve must fire.
type chatter struct {
	self, peer proto.ProcessID
}

func (p *chatter) Self() proto.ProcessID { return p.self }

func (p *chatter) TickAppend(_ uint64, out []proto.Message) []proto.Message {
	return append(out, proto.Message{Kind: proto.GossipMsg, From: p.self, To: p.peer})
}

func (p *chatter) HandleMessageAppend(m proto.Message, _ uint64, out []proto.Message) []proto.Message {
	return append(out, proto.Message{Kind: proto.GossipMsg, From: p.self, To: m.From})
}

// chatterCluster builds a cluster whose processes all ping-pong forever.
func chatterCluster(t *testing.T, n, workers int, async bool) *Cluster {
	t.Helper()
	opts := DefaultOptions(n)
	opts.Epsilon = 0
	opts.Tau = 0
	opts.Workers = workers
	opts.Async = async
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.procs {
		c.procs[i] = &chatter{self: c.ids[i], peer: c.ids[(i+1)%n]}
	}
	return c
}

// TestDispatchCountsTruncatedChase: messages still queued when the chase
// cap hits are counted — identically by the sequential, sharded, and both
// async executors — instead of vanishing.
func TestDispatchCountsTruncatedChase(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		workers int
		async   bool
	}{
		{"sequential", 0, false},
		{"sharded", 2, false},
		{"async-sequential", 0, true},
		{"async-sharded", 2, true},
	}
	var want NetStats
	for i, tc := range cases {
		tc := tc
		c := chatterCluster(t, 4, tc.workers, tc.async)
		c.RunRound()
		c.Close()
		s := c.NetStats()
		if s.TruncatedChase == 0 {
			t.Errorf("%s: saturated chase reported no truncated messages: %+v", tc.name, s)
		}
		// Every chatter answers every delivery, so exactly the final
		// hop's responses are cut off: one per delivered message chain,
		// i.e. as many as the processes that ticked.
		if s.TruncatedChase != 4 {
			t.Errorf("%s: TruncatedChase = %d, want 4 (%+v)", tc.name, s.TruncatedChase, s)
		}
		assertConserved(t, s)
		// All four executors implement the same accounting; the async
		// pair shares the wavefront schedule, the sync pair the round
		// schedule, and with ε=0 and no crashes all four agree.
		if i == 0 {
			want = s
		} else if s != want {
			t.Errorf("%s: stats %+v differ from sequential %+v", tc.name, s, want)
		}
	}
}

// TestDispatchCountsUnknownDest: a message addressed outside the cluster
// is its own counter now, not a phantom crash — in every executor and
// both regimes.
func TestDispatchCountsUnknownDest(t *testing.T) {
	t.Parallel()
	for _, async := range []bool{false, true} {
		for _, workers := range []int{0, 2} {
			c := chatterCluster(t, 4, workers, async)
			for i := range c.procs {
				// Everybody gossips into the void; nobody receives, so no
				// chase and no responses.
				c.procs[i] = &chatter{self: c.ids[i], peer: proto.ProcessID(9_999)}
			}
			c.RunRound()
			c.Close()
			s := c.NetStats()
			if s.UnknownDest != 4 || s.ToCrashed != 0 || s.Delivered != 0 {
				t.Errorf("async=%v workers=%d: want 4 unknown-dest and clean crash counter, got %+v", async, workers, s)
			}
			assertConserved(t, s)
		}
	}
}

// TestFirstPhaseAccounted: the pbcast first-phase multicast runs through
// the same accounting and loss model as every other message.
func TestFirstPhaseAccounted(t *testing.T) {
	t.Parallel()
	build := func(mut func(*Options)) *Cluster {
		opts := DefaultOptions(20)
		opts.Protocol = PbcastPartial
		opts.FirstPhaseDelivery = 1
		opts.Epsilon = 0
		opts.Tau = 0
		mut(&opts)
		c, err := NewCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	t.Run("perfect phase delivers everywhere", func(t *testing.T) {
		t.Parallel()
		c := build(func(*Options) {})
		defer c.Close()
		if _, err := c.PublishAt(0); err != nil {
			t.Fatal(err)
		}
		s := c.NetStats()
		if s.Sent != 19 || s.Delivered != 19 {
			t.Errorf("want 19 sent and delivered, got %+v", s)
		}
		assertConserved(t, s)
	})

	t.Run("phase unreliability is dropped traffic", func(t *testing.T) {
		t.Parallel()
		c := build(func(o *Options) { o.FirstPhaseDelivery = 0.5 })
		defer c.Close()
		if _, err := c.PublishAt(0); err != nil {
			t.Fatal(err)
		}
		s := c.NetStats()
		if s.Sent != 19 {
			t.Errorf("want 19 sent, got %+v", s)
		}
		if s.Dropped == 0 || s.Delivered == 0 {
			t.Errorf("p=0.5 should both deliver and drop, got %+v", s)
		}
		assertConserved(t, s)
	})

	t.Run("network loss applies on top", func(t *testing.T) {
		t.Parallel()
		c := build(func(o *Options) { o.Epsilon = 0.9999 })
		defer c.Close()
		if _, err := c.PublishAt(0); err != nil {
			t.Fatal(err)
		}
		s := c.NetStats()
		if s.Sent != 19 || s.Dropped < 15 {
			t.Errorf("ε≈1 should drop nearly all first-phase copies, got %+v", s)
		}
		assertConserved(t, s)
	})

	t.Run("crashed receivers are counted", func(t *testing.T) {
		t.Parallel()
		c := build(func(*Options) {})
		defer c.Close()
		c.crashes.CrashAt(c.ids[5], 0)
		c.crashes.CrashAt(c.ids[6], 0)
		if _, err := c.PublishAt(0); err != nil {
			t.Fatal(err)
		}
		s := c.NetStats()
		if s.Sent != 19 || s.ToCrashed != 2 || s.Delivered != 17 {
			t.Errorf("want 19 sent = 17 delivered + 2 to-crashed, got %+v", s)
		}
		assertConserved(t, s)
	})
}

// TestBurstLossWithScheduledCrashes is the combined property test for two
// failure models that had never run together: a Gilbert–Elliott burst
// channel as the loss model and explicitly scheduled crashes, on top of a
// one-round delay (so the arrival-time crash re-check is exercised too).
// The classifier must keep every message in exactly one outcome counter —
// no double counts between the burst drop, the crash filter, and the
// in-flight settling — and the sequential and sharded executors must agree
// on every counter in both regimes.
func TestBurstLossWithScheduledCrashes(t *testing.T) {
	t.Parallel()
	for _, async := range []bool{false, true} {
		async := async
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			t.Parallel()
			run := func(workers int) (NetStats, float64) {
				opts := DefaultOptions(120)
				opts.Seed = 13
				opts.Epsilon = 0 // loss comes from the burst channel below
				opts.Tau = 0     // crashes are scheduled explicitly below
				opts.Async = async
				opts.Workers = workers
				opts.Horizon = 10
				opts.Lpbcast.AssumeFromDigest = true
				opts.Delay = fault.FixedDelay{Rounds: 1}
				c, err := NewCluster(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				// Identical burst channel and crash schedule in every
				// executor: a bursty WAN plus twelve mid-run crashes.
				c.network.Loss = fault.NewBurst(0.02, 0.8, 0.02, 0.2, rng.New(77))
				for i := 0; i < 12; i++ {
					c.crashes.CrashAt(c.ids[(i*9)%120], uint64(2+i%6))
				}
				if _, err := c.PublishAt(0); err != nil {
					t.Fatal(err)
				}
				for r := 0; r < 10; r++ {
					c.RunRound()
					assertConserved(t, c.NetStats())
				}
				s := c.NetStats()
				infected := float64(c.DeliveredCount(eventAt(c)))
				return s, infected
			}
			seqStats, seqInf := run(0)
			parStats, parInf := run(4)
			if seqStats != parStats || seqInf != parInf {
				t.Errorf("executors diverge:\nseq: %+v infected=%v\npar: %+v infected=%v",
					seqStats, seqInf, parStats, parInf)
			}
			if seqStats.Dropped == 0 {
				t.Errorf("burst channel dropped nothing: %+v", seqStats)
			}
			if seqStats.ToCrashed == 0 {
				t.Errorf("scheduled crashes absorbed nothing: %+v", seqStats)
			}
			if seqStats.DeliveredLate == 0 {
				t.Errorf("fixed delay produced no late deliveries: %+v", seqStats)
			}
		})
	}
}

// eventAt returns the single traced event id of a cluster that published
// exactly once at process 1.
func eventAt(c *Cluster) proto.EventID {
	ids := c.rec.eventIDs()
	if len(ids) != 1 {
		panic(fmt.Sprintf("expected exactly one event, got %d", len(ids)))
	}
	return ids[0]
}

// TestNetStatsConservedUnderLoad: a realistic lossy, crashy, retransmitting
// run keeps the conservation invariant in every executor and both regimes.
func TestNetStatsConservedUnderLoad(t *testing.T) {
	t.Parallel()
	for _, async := range []bool{false, true} {
		for _, workers := range []int{0, 4} {
			async, workers := async, workers
			t.Run(fmt.Sprintf("async=%v/workers=%d", async, workers), func(t *testing.T) {
				t.Parallel()
				opts := DefaultOptions(150)
				opts.Seed = 5
				opts.Async = async
				opts.Workers = workers
				opts.Epsilon = 0.15
				opts.Tau = 0.05
				opts.Horizon = 12
				opts.Lpbcast.Retransmit = true
				opts.Lpbcast.ArchiveSize = 500
				c, err := NewCluster(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if _, err := c.PublishAt(0); err != nil {
					t.Fatal(err)
				}
				for r := 0; r < 12; r++ {
					c.RunRound()
				}
				s := c.NetStats()
				assertConserved(t, s)
				if s.Dropped == 0 || s.ToCrashed == 0 {
					t.Errorf("loss and crash traffic expected, got %+v", s)
				}
			})
		}
	}
}
