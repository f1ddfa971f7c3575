package sim

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netmodel"
	"repro/internal/pbcast"
	"repro/internal/proto"
)

var (
	_ Process = (*core.Engine)(nil)
	_ Process = (*pbcast.Node)(nil)
)

// TestOptionsValidate is the cluster options' validation table, including
// the unit-mixing rule: options mixing millisecond and round-granular delay
// expressions are rejected loudly instead of silently coercing units.
func TestOptionsValidate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		mutate  func(*Options)
		wantErr string // "" = valid
	}{
		{"minimal", func(o *Options) {}, ""},
		{"tiny", func(o *Options) { o.N = 1 }, "at least 2"},
		{"bad epsilon", func(o *Options) { o.Epsilon = 1 }, "epsilon"},
		{"bad tau", func(o *Options) { o.Tau = -0.1 }, "tau"},
		{"bad protocol", func(o *Options) { o.Protocol = Protocol(9) }, "unknown protocol"},
		{"bad lpbcast", func(o *Options) { o.Lpbcast.Fanout = 0 }, "core: Fanout"},
		{"bad pbcast", func(o *Options) { o.Protocol = PbcastPartial; o.Pbcast.Fanout = 0 }, "pbcast: Fanout"},
		{"first phase above 1", func(o *Options) { o.FirstPhaseDelivery = 1.5 }, "FirstPhaseDelivery"},
		{"first phase negative", func(o *Options) { o.FirstPhaseDelivery = -0.1 }, "FirstPhaseDelivery"},
		{"negative warmup", func(o *Options) { o.WarmupRounds = -1 }, "WarmupRounds"},
		{"event clock", func(o *Options) { o.Clock = ClockEvent }, ""},
		{"unknown clock", func(o *Options) { o.Clock = Clock(9) }, "unknown clock"},
		{"negative period", func(o *Options) { o.PeriodMs = -1 }, "PeriodMs"},
		{"period on round clock", func(o *Options) { o.PeriodMs = 50 }, "PeriodMs"},
		{"ms delay on event clock", func(o *Options) {
			o.Clock = ClockEvent
			o.Delay = fault.Millis{Model: fault.FixedDelay{Rounds: 30}}
		}, ""},
		{"ms delay on round clock", func(o *Options) {
			o.Delay = fault.Millis{Model: fault.FixedDelay{Rounds: 30}}
		}, "requires the event clock"},
		{"ms delay mixed with round topology delays", func(o *Options) {
			o.Clock = ClockEvent
			o.Delay = fault.Millis{Model: fault.FixedDelay{Rounds: 30}}
			o.Topology = wanTopologyFor(o.N)
		}, "mixes"},
		{"ms delay with zero-delay topology", func(o *Options) {
			o.Clock = ClockEvent
			o.Delay = fault.Millis{Model: fault.FixedDelay{Rounds: 30}}
			o.Topology = fault.TwoCluster{
				Split: processID(o.N / 2),
				Local: fault.LinkProfile{Epsilon: -1},
				WAN:   fault.LinkProfile{Epsilon: 0.1},
			}
		}, ""},
		{"ms delay beyond event horizon", func(o *Options) {
			o.Clock = ClockEvent
			o.Delay = fault.Millis{Model: fault.FixedDelay{Rounds: netmodel.MaxSpanMs + 1}}
		}, "delay"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			o := DefaultOptions(125)
			c.mutate(&o)
			err := o.Validate()
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("Validate: unexpected error %v", err)
			case c.wantErr != "" && err == nil:
				t.Fatalf("Validate succeeded, want error containing %q", c.wantErr)
			case err != nil && !strings.Contains(err.Error(), c.wantErr):
				t.Fatalf("Validate error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

func TestProtocolString(t *testing.T) {
	t.Parallel()
	if Lpbcast.String() != "lpbcast" || PbcastPartial.String() != "pbcast/partial" ||
		PbcastTotal.String() != "pbcast/total" || Protocol(9).String() != "protocol(9)" {
		t.Error("Protocol.String wrong")
	}
}

func TestClusterDeterminism(t *testing.T) {
	t.Parallel()
	run := func() (NetStats, int) {
		o := DefaultOptions(40)
		o.Seed = 99
		c, err := NewCluster(o)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := c.PublishAt(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			c.RunRound()
		}
		return c.NetStats(), c.DeliveredCount(ev.ID)
	}
	n1, d1 := run()
	n2, d2 := run()
	if n1 != n2 || d1 != d2 {
		t.Fatalf("same seed diverged: %+v/%d vs %+v/%d", n1, d1, n2, d2)
	}
}

func TestClusterSeedsChangeOutcome(t *testing.T) {
	t.Parallel()
	get := func(seed uint64) uint64 {
		o := DefaultOptions(40)
		o.Seed = seed
		c, err := NewCluster(o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.PublishAt(0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			c.RunRound()
		}
		return c.NetStats().Dropped
	}
	if get(1) == get(2) && get(3) == get(4) && get(5) == get(6) {
		t.Error("three independent seed pairs all collided; loss injection looks seed-independent")
	}
}

func TestUniformViewsRespectBounds(t *testing.T) {
	t.Parallel()
	o := DefaultOptions(50)
	o.Lpbcast.Membership.MaxView = 7
	c, err := NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph()
	if len(g) != 50 {
		t.Fatalf("graph has %d views", len(g))
	}
	for pid, view := range g {
		if len(view) != 7 {
			t.Errorf("%v has view of %d, want 7", pid, len(view))
		}
		for _, q := range view {
			if q == pid {
				t.Errorf("%v contains itself", pid)
			}
		}
	}
	if g.Partitioned() {
		t.Error("uniform random views partitioned at n=50, l=7")
	}
}

func TestNoLossWhenEpsilonZero(t *testing.T) {
	t.Parallel()
	o := DefaultOptions(30)
	o.Epsilon = 0
	o.Tau = 0
	c, err := NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.RunRound()
	}
	s := c.NetStats()
	if s.Dropped != 0 || s.ToCrashed != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Sent != s.Delivered {
		t.Fatalf("sent %d != delivered %d", s.Sent, s.Delivered)
	}
	// Every alive process gossips Fanout messages per round.
	want := uint64(30 * 3 * 5)
	if s.Sent != want {
		t.Fatalf("sent = %d, want %d", s.Sent, want)
	}
}

func TestLossRateRoughlyEpsilon(t *testing.T) {
	t.Parallel()
	o := DefaultOptions(60)
	o.Epsilon = 0.2
	o.Tau = 0
	c, err := NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		c.RunRound()
	}
	s := c.NetStats()
	rate := float64(s.Dropped) / float64(s.Sent)
	if rate < 0.15 || rate > 0.25 {
		t.Fatalf("observed loss rate %v, want ≈0.2", rate)
	}
}

func TestCrashedProcessesStaySilent(t *testing.T) {
	t.Parallel()
	o := DefaultOptions(20)
	o.Tau = 0.2 // 4 crashes
	o.Horizon = 1
	c, err := NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	c.RunRound() // now = 1: all sampled crashes are in effect
	if alive := c.AliveCount(); alive != 16 {
		t.Fatalf("alive = %d, want 16", alive)
	}
	crashed := 0
	for i := 1; i <= 20; i++ {
		if c.Crashed(proto.ProcessID(i)) {
			crashed++
		}
	}
	if crashed != 4 {
		t.Fatalf("crashed = %d, want 4", crashed)
	}
}

func TestAsyncRoundDeterminism(t *testing.T) {
	t.Parallel()
	run := func() float64 {
		o := DefaultOptions(40)
		o.Seed = 5
		o.Async = true
		o.Lpbcast.AssumeFromDigest = true
		c, err := NewCluster(o)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := c.PublishAt(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			c.RunRound()
		}
		return float64(c.DeliveredCount(ev.ID))
	}
	if run() != run() {
		t.Fatal("async mode not deterministic under a fixed seed")
	}
}

func TestAsyncSpreadsFasterThanSync(t *testing.T) {
	t.Parallel()
	spread := func(async bool) float64 {
		o := DefaultOptions(80)
		o.Seed = 7
		o.Async = async
		o.Lpbcast.AssumeFromDigest = true
		total := 0.0
		for rep := 0; rep < 5; rep++ {
			o.Seed = 7 + uint64(rep)
			c, err := NewCluster(o)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := c.PublishAt(0)
			if err != nil {
				t.Fatal(err)
			}
			c.RunRound()
			c.RunRound()
			total += float64(c.DeliveredCount(ev.ID))
		}
		return total / 5
	}
	sync, async := spread(false), spread(true)
	if async <= sync {
		t.Errorf("async spread %v not faster than sync %v after 2 periods", async, sync)
	}
}

func TestRecorderCountsFirstDeliveryOnly(t *testing.T) {
	t.Parallel()
	r := newRecorder(3)
	ev := proto.Event{ID: proto.EventID{Origin: 1, Seq: 1}}
	r.record(1, ev)
	r.record(1, ev)
	r.record(2, ev)
	if got := r.count(ev.ID); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if !r.has(0, ev.ID) || r.has(2, ev.ID) {
		t.Fatal("has() wrong")
	}
	if got := r.count(proto.EventID{Origin: 9, Seq: 9}); got != 0 {
		t.Fatalf("count of unknown id = %d", got)
	}
	if ids := r.eventIDs(); len(ids) != 1 || ids[0] != ev.ID {
		t.Fatalf("eventIDs = %v", ids)
	}
}

func TestRecorderIgnoresForeignOwners(t *testing.T) {
	t.Parallel()
	r := newRecorder(2)
	ev := proto.Event{ID: proto.EventID{Origin: 1, Seq: 1}}
	r.record(99, ev) // out of range owner
	if r.count(ev.ID) != 0 {
		t.Fatal("foreign owner counted")
	}
}

func TestWarmupRoundsAdvanceClock(t *testing.T) {
	t.Parallel()
	o := DefaultOptions(20)
	o.WarmupRounds = 3
	c, err := NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Now() != 3 {
		t.Fatalf("Now = %d, want 3", c.Now())
	}
	if c.N() != 20 {
		t.Fatalf("N = %d", c.N())
	}
}
