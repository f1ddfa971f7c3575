package sim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
)

// wanWaveOptions is the benchmark's sim-event-wan configuration at n
// processes: the event clock, async periods of 100 ms, two clusters with
// millisecond delays, timed-out pulls, and one WAN cut from period 10 to 20.
func wanWaveOptions(n int) Options {
	o := DefaultOptions(n)
	o.Seed = 701
	o.EmissionReuse = true
	o.Tau = 0
	o.Lpbcast.Retransmit = true
	o.Lpbcast.RetransmitTimeout = 2
	o.Async = true
	o.Clock = ClockEvent
	o.PeriodMs = 100
	split := proto.ProcessID(n / 2)
	o.Topology = fault.TwoCluster{Split: split,
		Local: fault.LinkProfile{Epsilon: -1},
		WAN:   fault.LinkProfile{Epsilon: 0.10}}
	o.Delay = fault.Millis{Model: fault.TopologyDelay{T: fault.TwoCluster{Split: split,
		Local: fault.LinkProfile{MinDelay: 1, MaxDelay: 5},
		WAN:   fault.LinkProfile{MinDelay: 40, MaxDelay: 180}}}}
	o.Partitions = []fault.Partition{{From: 10, To: 20, Classes: []fault.LinkClass{fault.LinkWAN}}}
	return o
}

// TestPhaseOrder holds phaseOrder to the reference's stable sort by phase
// over random phases in [1, PeriodMs], PeriodMs from 1 (every phase tied) to
// maxPeriodMs, and up to 10⁴ processes.
func TestPhaseOrder(t *testing.T) {
	t.Parallel()
	r := rng.New(46)
	for _, periodMs := range []int{1, 2, 3, 10, 100, 1000, maxPeriodMs} {
		for _, n := range []int{0, 1, 2, 17, 1000, 10000} {
			phase := make([]uint64, n)
			for i := range phase {
				phase[i] = 1 + uint64(r.Intn(periodMs))
			}
			if got, want := phaseOrder(phase), refPhaseOrder(phase); !slices.Equal(got, want) {
				t.Fatalf("PeriodMs %d, n %d: phaseOrder differs from the stable sort", periodMs, n)
			}
		}
	}
}

// roundWaveOptions is the default round-clock async cluster of n processes.
func roundWaveOptions(n int) Options {
	o := DefaultOptions(n)
	o.Seed = 11
	o.Async = true
	return o
}

// waveSequence runs periods async periods of the cluster opts describes,
// publishing at three random live processes before each, and returns the
// number of waves each period took.
func waveSequence(t *testing.T, opts Options, periods int) []int {
	t.Helper()
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pub := rng.New(opts.Seed ^ 0x5eed)
	waves := make([]int, 0, periods)
	for p := 0; p < periods; p++ {
		for k := 0; k < 3; k++ {
			if i := pub.Intn(c.N()); !c.Crashed(c.ids[i]) {
				if _, err := c.PublishAt(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.RunRound()
		waves = append(waves, int(c.exec.waves))
	}
	return waves
}

// TestAsyncWaveSchedule pins the wavefront schedule itself: the number of
// waves of every period, on 1 and 3 shards, for three seeded clusters. The
// sequences were recorded when ticks were still composed ahead of the walk
// and rolled back when a delivery reached them. A wave ends at a pending
// arrival instant or at a process the walk has reached, so on the WAN
// configuration, whose delays leave an arrival pending at nearly every
// millisecond, the arrivals set the count, and on the other two the
// deliveries do.
func TestAsyncWaveSchedule(t *testing.T) {
	t.Parallel()
	wan := make([]int, 40)
	for p := range wan {
		wan[p] = 100
	}
	eventClock := roundWaveOptions(1000)
	eventClock.Clock, eventClock.PeriodMs = ClockEvent, 100
	cases := []struct {
		name string
		opts Options
		want []int
	}{
		{"sim-event-wan/n=1000", wanWaveOptions(1000), wan},
		{"round-clock/n=2000", roundWaveOptions(2000), []int{
			56, 60, 58, 51, 57, 59, 65, 58, 61, 60, 64, 59, 62, 60, 53, 50, 52, 58, 53, 54,
			57, 54, 51, 56, 57, 69, 64, 49, 64, 59, 57, 54, 57, 61, 64, 62, 69, 53, 58, 64}},
		{"event-clock/zero-delay/n=1000", eventClock, []int{
			44, 42, 50, 40, 37, 43, 44, 45, 49, 42, 43, 38, 42, 42, 41, 44, 40, 38, 40, 45,
			43, 41, 39, 42, 42, 37, 40, 44, 38, 42, 38, 36, 42, 45, 46, 41, 44, 42, 41, 43}},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, w), func(t *testing.T) {
				t.Parallel()
				o := tc.opts
				o.Workers = w
				if got := waveSequence(t, o, len(tc.want)); !slices.Equal(got, tc.want) {
					t.Fatalf("waves per period\n got %v\nwant %v", got, tc.want)
				}
			})
		}
	}
}
