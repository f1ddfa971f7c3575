package sim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
)

// asyncOpts returns the standard async test setup.
func asyncOpts(n int, seed uint64) Options {
	opts := DefaultOptions(n)
	opts.Seed = seed
	opts.Async = true
	opts.Lpbcast.AssumeFromDigest = true
	return opts
}

// TestParallelAsyncMatchesSequentialInfection is the wavefront schedule's
// correctness oracle: for several seeds and all three protocols, the
// executor's async period must reproduce the sequential wavefront
// reference's infection traces exactly, on one shard, three and four.
func TestParallelAsyncMatchesSequentialInfection(t *testing.T) {
	t.Parallel()
	for _, protocol := range []Protocol{Lpbcast, PbcastPartial, PbcastTotal} {
		for _, seed := range []uint64{1, 7, 42} {
			protocol, seed := protocol, seed
			t.Run(fmt.Sprintf("%s/seed=%d", protocol, seed), func(t *testing.T) {
				t.Parallel()
				opts := asyncOpts(250, seed)
				opts.Protocol = protocol
				opts.WarmupRounds = 2
				assertMatchesRef(t, "async infection", opts, 8, 2, shardCounts(4)...)
			})
		}
	}
}

// TestParallelAsyncMatchesSequential10k is the scale acceptance criterion:
// a 10,000-process async experiment through the executor is byte-identical
// to the sequential wavefront reference, for explicit shard counts and for
// GOMAXPROCS.
func TestParallelAsyncMatchesSequential10k(t *testing.T) {
	t.Parallel()
	n := bigN()
	opts := asyncOpts(n, 3)
	seq := assertMatchesRef(t, fmt.Sprintf("async infection@%d", n), opts, 8, 1, append(shardCounts(runtime.GOMAXPROCS(0)), 4)...)
	// The run must actually disseminate; otherwise equality is vacuous.
	// Async covers ≈2 hops per period, so 8 periods saturate the system.
	if last := seq.PerRound[len(seq.PerRound)-1]; last < float64(n)*0.95 {
		t.Errorf("only %v of %d infected; dissemination failed", last, n)
	}
}

// TestParallelAsyncMatchesSequentialReliability checks the async regime's
// primary experiment type end to end, including the network counters.
func TestParallelAsyncMatchesSequentialReliability(t *testing.T) {
	t.Parallel()
	base := DefaultReliabilityOptions(125)
	base.Cluster.Seed = 11
	base.PublishRounds = 8
	base.DrainRounds = 8

	seq := assertReliabilityMatchesRef(t, "async reliability", base, shardCounts(4)...)
	if seq.Reliability <= 0 || seq.Events == 0 {
		t.Errorf("degenerate run: %+v", seq)
	}
}

// TestParallelAsyncWorkerCountInvariance: the wavefront schedule is a pure
// function of the simulation state, so results are independent of the
// shard count, from the default through one shard per process.
func TestParallelAsyncWorkerCountInvariance(t *testing.T) {
	t.Parallel()
	opts := asyncOpts(200, 99)
	assertMatchesRef(t, "async infection", opts, 8, 2, 0, 1, 2, 3, 8, 200)
}

// TestParallelAsyncReuseNoUseAfterRecycle is the async emission-reuse
// property test: with PoisonRecycled on, every buffer the period recycles
// — the period's emissions, their shared scratch gossips, and the
// queue/response slots — is overwritten with sentinels at the end of
// each period, so any consumer holding one too long diverges loudly from
// the sequential reference. Retransmit mode exercises the longest-lived
// buffers (the wave barrier's request/reply chase); the pbcast protocols
// exercise the solicitation path and the deferred-reply flush.
func TestParallelAsyncReuseNoUseAfterRecycle(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"lpbcast/assume", func(o *Options) { o.Lpbcast.AssumeFromDigest = true }},
		{"lpbcast/retransmit", func(o *Options) {
			o.Lpbcast.AssumeFromDigest = false
			o.Epsilon = 0.15
			o.Lpbcast.Retransmit = true
			o.Lpbcast.ArchiveSize = 500
		}},
		{"lpbcast/compact", func(o *Options) {
			o.Lpbcast.AssumeFromDigest = true
			o.Lpbcast.DigestMode = core.CompactDigest
		}},
		{"pbcast/partial", func(o *Options) { o.Protocol = PbcastPartial }},
		{"pbcast/total", func(o *Options) { o.Protocol = PbcastTotal }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := asyncOpts(200, 77)
			opts.WarmupRounds = 2
			tc.mut(&opts)
			opts.PoisonRecycled = true
			assertMatchesRef(t, "async poisoned reuse", opts, 10, 2, shardCounts(4)...)
		})
	}
}

// TestParallelAsyncReuseWithPoison10k extends the async use-after-recycle
// property to the acceptance scale (shrunk under -short; see bigN).
func TestParallelAsyncReuseWithPoison10k(t *testing.T) {
	t.Parallel()
	opts := asyncOpts(bigN(), 3)
	opts.PoisonRecycled = true
	// 4: explicitly sharded, even on a single-core runner.
	assertMatchesRef(t, "async poisoned reuse@10k", opts, 8, 1, shardCounts(4)...)
}

// TestAsyncRoundAllocs is the async acceptance gate: once a cluster is
// fully infected and every scratch buffer has reached steady-state
// capacity, an async period — the commit walk and its ticks, the
// barrier handle fan-outs, and the response merges — must not allocate
// more than twice, sharded four ways or with no option set (one shard).
func TestAsyncRoundAllocs(t *testing.T) {
	for _, workers := range []int{4, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := asyncOpts(1_000, 9)
			opts.Tau = 0 // a clean steady state: no crash-time variation
			opts.Workers = workers
			if allocs := steadyRoundAllocs(t, opts); allocs > 2 {
				t.Errorf("steady-state async period allocates %v times, want <= 2", allocs)
			}
		})
	}
}

// TestAsyncForwardsWithinPeriod pins the regime's defining property under
// the wavefront schedule: a delivery that lands before a process's tick
// is forwarded by that tick in the same period, so one async period
// spreads an event strictly further than one synchronous round (where
// information travels exactly one hop): a wave ends at a process it
// delivered to, whose tick then runs, next wave, on the state that
// includes the event.
func TestAsyncForwardsWithinPeriod(t *testing.T) {
	t.Parallel()
	spread := func(async bool) float64 {
		total := 0.0
		for rep := 0; rep < 5; rep++ {
			o := DefaultOptions(300)
			o.Seed = 31 + uint64(rep)
			o.Async = async
			o.Workers = 4
			o.Lpbcast.AssumeFromDigest = true
			c, err := NewCluster(o)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := c.PublishAt(0)
			if err != nil {
				t.Fatal(err)
			}
			c.RunRound()
			total += float64(c.DeliveredCount(ev.ID))
			c.Close()
		}
		return total / 5
	}
	sync, async := spread(false), spread(true)
	if async <= sync {
		t.Errorf("async spread %v not ahead of sync %v after one period", async, sync)
	}
}
