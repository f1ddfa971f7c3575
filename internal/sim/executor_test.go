package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
)

// assertIdentical asserts structural and byte-level equality of the two
// results: the determinism guarantee is bit-for-bit, not approximate.
func assertIdentical(t *testing.T, label string, seq, par interface{}) {
	t.Helper()
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("%s: executor result differs from the reference\nref: %+v\ngot: %+v", label, seq, par)
		return
	}
	if sb, pb := fmt.Sprintf("%#v", seq), fmt.Sprintf("%#v", par); sb != pb {
		t.Errorf("%s: results not byte-identical\nref: %s\ngot: %s", label, sb, pb)
	}
}

// TestParallelMatchesSequentialInfection is the executor's correctness
// oracle: for several seeds and all three protocols, one shard, three and
// four must reproduce the sequential reference walk's infection traces
// exactly (seqref_test.go).
func TestParallelMatchesSequentialInfection(t *testing.T) {
	t.Parallel()
	for _, protocol := range []Protocol{Lpbcast, PbcastPartial, PbcastTotal} {
		for _, seed := range []uint64{1, 7, 42} {
			protocol, seed := protocol, seed
			t.Run(fmt.Sprintf("%s/seed=%d", protocol, seed), func(t *testing.T) {
				t.Parallel()
				opts := DefaultOptions(250)
				opts.Seed = seed
				opts.Protocol = protocol
				opts.Lpbcast.AssumeFromDigest = true
				opts.WarmupRounds = 2
				assertMatchesRef(t, "infection", opts, 8, 2, shardCounts(4)...)
			})
		}
	}
}

// TestParallelMatchesSequential10k is the scale acceptance criterion: a
// 10,000-process experiment through the executor is byte-identical to the
// sequential reference (shrunk under -short; see bigN).
func TestParallelMatchesSequential10k(t *testing.T) {
	t.Parallel()
	n := bigN()
	opts := DefaultOptions(n)
	opts.Seed = 3
	opts.Lpbcast.AssumeFromDigest = true
	seq := assertMatchesRef(t, fmt.Sprintf("infection@%d", n), opts, 12, 1, shardCounts(runtime.GOMAXPROCS(0))...)
	// The run must actually disseminate; otherwise equality is vacuous.
	if last := seq.PerRound[len(seq.PerRound)-1]; last < float64(n)*0.95 {
		t.Errorf("only %v of %d infected; dissemination failed", last, n)
	}
}

// TestParallelMatchesSequentialReliability checks the second experiment
// type end to end, including network counters, in synchronous mode (the
// async regime has its own suite in executor_async_test.go).
func TestParallelMatchesSequentialReliability(t *testing.T) {
	t.Parallel()
	base := DefaultReliabilityOptions(125)
	base.Cluster.Async = false
	base.Cluster.Seed = 11
	base.PublishRounds = 8
	base.DrainRounds = 8

	seq := assertReliabilityMatchesRef(t, "reliability", base, shardCounts(4)...)
	if seq.Reliability <= 0 || seq.Events == 0 {
		t.Errorf("degenerate run: %+v", seq)
	}
}

// TestParallelReuseNoUseAfterRecycle is the emission-reuse property test:
// with PoisonRecycled on, every buffer the executor recycles — the shared
// tick gossips and the outbox/response slots — is overwritten with
// sentinels at the end of each round. If any phase (the sequential
// loss/crash filter, a handle shard, the span merge) held a recycled
// buffer past its round, the poisoned values would leak into views,
// deliveries, or retransmission traffic and diverge from the reference,
// which recycles nothing. Retransmit mode is included deliberately: its
// request/reply chase is the longest-lived consumer of round buffers.
func TestParallelReuseNoUseAfterRecycle(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"lpbcast/assume", func(o *Options) { o.Lpbcast.AssumeFromDigest = true }},
		{"lpbcast/retransmit", func(o *Options) {
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
			opts := DefaultOptions(200)
			opts.Seed = 77
			opts.WarmupRounds = 2
			tc.mut(&opts)
			opts.PoisonRecycled = true
			assertMatchesRef(t, "poisoned reuse", opts, 10, 2, shardCounts(4)...)
		})
	}
}

// TestParallelReuseWithPoison10k extends the use-after-recycle property to
// the acceptance scale (shrunk under -short; see bigN): a poisoned
// 10,000-process run through the reuse path must match the sequential
// reference byte for byte.
func TestParallelReuseWithPoison10k(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions(bigN())
	opts.Seed = 3
	opts.Lpbcast.AssumeFromDigest = true
	opts.PoisonRecycled = true
	// 4: explicitly sharded, even on a single-core runner.
	assertMatchesRef(t, "poisoned reuse@10k", opts, 12, 1, shardCounts(4)...)
}

// TestExecutorRoundAllocs is the acceptance gate for the zero-alloc
// executor: once a cluster is fully infected and every scratch buffer has
// reached steady-state capacity, a round — engine emission, the loss
// filter, the handle fan-out, and the span merge — must not allocate more
// than twice, sharded four ways, two ways (each shard's emissions in its
// own arena) or with no option set at all (one shard, run inline).
func TestExecutorRoundAllocs(t *testing.T) {
	for _, workers := range []int{4, 2, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := DefaultOptions(1_000)
			opts.Seed = 9
			opts.Tau = 0 // a clean steady state: no crash-time variation
			opts.Lpbcast.AssumeFromDigest = true
			opts.Workers = workers
			if allocs := steadyRoundAllocs(t, opts); allocs > 2 {
				t.Errorf("steady-state round allocates %v times, want <= 2", allocs)
			}
		})
	}
}

// steadyRoundAllocs builds the cluster, publishes one event and runs 300
// rounds — infecting everyone and letting every scratch buffer, view map,
// emission buffer and subs list reach its high-water capacity: membership
// churn keeps growing buffers for a long tail
// of rounds before the caps stabilize — then measures one round.
func steadyRoundAllocs(t *testing.T, opts Options) float64 {
	t.Helper()
	cluster, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := cluster.PublishAt(0); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 300; r++ {
		cluster.RunRound()
	}
	return testing.AllocsPerRun(50, func() { cluster.RunRound() })
}

// TestTwoShardsPoisonedMatchOneShard: two shards emit into two arenas, each
// reset only after the period has been handled and poisoned, and must
// reproduce one unpoisoned shard byte for byte — on the round clock, and on
// the event clock with millisecond delays, where the in-flight ring copies
// what outlives the period. The async regime ticks in one walk while the
// shards handle; under -race this is also the check that no shard cuts from
// the other's arena.
func TestTwoShardsPoisonedMatchOneShard(t *testing.T) {
	t.Parallel()
	for _, clock := range []Clock{ClockRounds, ClockEvent} {
		for _, async := range []bool{false, true} {
			clock, async := clock, async
			t.Run(fmt.Sprintf("%v/async=%v", clock, async), func(t *testing.T) {
				t.Parallel()
				opts := DefaultReliabilityOptions(120)
				opts.Cluster.Seed = 5
				opts.Cluster.Async = async
				opts.Cluster.Clock = clock
				opts.Cluster.Lpbcast.AssumeFromDigest = false
				opts.Cluster.Lpbcast.Retransmit = true
				opts.Cluster.Lpbcast.RetransmitTimeout = 2
				if clock == ClockEvent {
					opts.Cluster.Delay = fault.Millis{Model: fault.UniformDelay{Min: 10, Max: 180}}
				}
				opts.Rate, opts.PublishRounds, opts.DrainRounds = 8, 6, 6
				one := opts
				one.Cluster.Workers = 1
				want, err := ReliabilityExperiment(one)
				if err != nil {
					t.Fatal(err)
				}
				two := opts
				two.Cluster.Workers = 2
				two.Cluster.PoisonRecycled = true
				got, err := ReliabilityExperiment(two)
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, "two poisoned shards", want, got)
				if want.Events == 0 || want.Net.Sent == 0 {
					t.Fatalf("degenerate run: %+v", want)
				}
			})
		}
	}
}

// TestEmitArenasPerShard: a loaded cluster — 1 000 processes, four
// publishes a period, retransmission on — keeps its emissions in one arena
// per executor shard, and after 50 periods the arenas hold under 1.6 KB a
// process: one period's gossips, not every engine's largest. Each engine
// emits into its own shard's arena: a tick's gossip is zeroed by that
// arena's Reset and by no other's.
func TestEmitArenasPerShard(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2} {
		opts := DefaultOptions(1000)
		opts.Seed = 21
		opts.Workers = workers
		opts.Lpbcast.Retransmit = true
		c, err := NewCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		pick := rng.New(99)
		for r := 0; r < 50; r++ {
			for k := 0; k < 4; k++ {
				if _, err := c.PublishAt(pick.Intn(c.N())); err != nil {
					t.Fatal(err)
				}
			}
			c.RunRound()
		}
		size := 0
		for s := range c.emit {
			size += c.emit[s].Size()
		}
		per := float64(size) / float64(c.N())
		t.Logf("workers=%d: %.0f B of emission arena a process", workers, per)
		if per > 1600 || per == 0 {
			t.Errorf("workers=%d: the arenas keep %.0f B a process after 50 loaded periods, want (0, 1600]", workers, per)
		}
		for i := 0; i < c.N(); i += 7 {
			msgs := c.procs[i].TickAppend(c.now, nil)
			if len(msgs) == 0 {
				t.Fatalf("process %d emitted nothing", i)
			}
			g := msgs[0].Gossip
			for s := range c.emit {
				if s != c.exec.shardOf[i] {
					c.emit[s].Reset()
				}
			}
			if g.From != c.ids[i] {
				t.Fatalf("workers=%d: process %d's gossip was taken back by another shard's arena", workers, i)
			}
			c.emit[c.exec.shardOf[i]].Reset()
			if g.From != proto.NilProcess {
				t.Fatalf("workers=%d: process %d's gossip is not in its shard's arena", workers, i)
			}
		}
		c.Close()
	}
}

// TestClusterCloseIdempotent pins the Close contract: closing twice is a
// no-op, and so is closing a one-shard cluster at all — it has no workers.
func TestClusterCloseIdempotent(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{0, 1, 4} {
		opts := DefaultOptions(64)
		opts.Workers = workers
		cluster, err := NewCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		cluster.RunRound()
		cluster.Close()
		cluster.Close()
		if workers <= 1 && len(cluster.exec.pool.work) != 0 {
			t.Errorf("workers=%d: a one-shard cluster started %d workers", workers, len(cluster.exec.pool.work))
		}
	}
}

// TestAbandonedClusterReleasesWorkers: a multi-shard cluster that is never
// Closed gives its worker goroutines back once it is garbage. The cluster
// and its executor reference each other, and Go runs no finalizer on
// cyclic garbage, so this holds only while the cleanup sits on an object
// outside that cycle. Not parallel: it counts the process's goroutines.
func TestAbandonedClusterReleasesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		opts := DefaultOptions(64)
		opts.Workers = 4
		cluster, err := NewCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		cluster.RunRound()
	}()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after the cluster was dropped, %d before it was built",
				runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelMatchesSequentialRetransmit exercises the response-merge
// path: with Retransmit enabled the chase loop carries request and reply
// messages across hops, whose ordering the merge must reproduce exactly.
func TestParallelMatchesSequentialRetransmit(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions(150)
	opts.Seed = 23
	opts.Epsilon = 0.15 // losses create gaps for the pull path to repair
	opts.Lpbcast.Retransmit = true
	opts.Lpbcast.ArchiveSize = 500
	assertMatchesRef(t, "retransmit", opts, 10, 2, shardCounts(5)...)
}

// TestParallelWorkerCountInvariance: the determinism guarantee is not just
// "some shard count equals the reference" but independence from the shard
// count, from the default through one shard per process.
func TestParallelWorkerCountInvariance(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions(200)
	opts.Seed = 99
	opts.Lpbcast.AssumeFromDigest = true
	assertMatchesRef(t, "infection", opts, 8, 2, 0, 1, 2, 3, 8, 200)
}

// TestParallelViewInvariants is a seeded property test: after parallel
// rounds with crashes and churn of membership information, every surviving
// process's view still satisfies the §3 bounds — at most l members, no
// self-reference, no duplicates.
func TestParallelViewInvariants(t *testing.T) {
	t.Parallel()
	for _, protocol := range []Protocol{Lpbcast, PbcastPartial} {
		for seed := uint64(1); seed <= 5; seed++ {
			protocol, seed := protocol, seed
			t.Run(fmt.Sprintf("%s/seed=%d", protocol, seed), func(t *testing.T) {
				t.Parallel()
				opts := DefaultOptions(300)
				opts.Seed = seed
				opts.Protocol = protocol
				opts.Tau = 0.02
				opts.Workers = 8
				opts.WarmupRounds = 3
				cluster, err := NewCluster(opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cluster.PublishAt(0); err != nil {
					t.Fatal(err)
				}
				for r := 0; r < 10; r++ {
					cluster.RunRound()
				}
				maxView := opts.Lpbcast.Membership.MaxView
				if protocol == PbcastPartial {
					maxView = opts.Pbcast.Membership.MaxView
				}
				for pid, view := range cluster.Graph() {
					if len(view) > maxView {
						t.Errorf("%v: view size %d exceeds l=%d", pid, len(view), maxView)
					}
					seen := map[proto.ProcessID]bool{}
					for _, q := range view {
						if q == pid {
							t.Errorf("%v: view contains self", pid)
						}
						if seen[q] {
							t.Errorf("%v: duplicate view entry %v", pid, q)
						}
						seen[q] = true
					}
				}
			})
		}
	}
}

// TestEffectiveWorkers pins the Workers-option resolution rules.
func TestEffectiveWorkers(t *testing.T) {
	t.Parallel()
	for _, w := range []int{0, 1} {
		if got := effectiveWorkers(w, 100); got != 1 {
			t.Errorf("effectiveWorkers(%d) = %d, want one shard", w, got)
		}
	}
	if got := effectiveWorkers(4, 100); got != 4 {
		t.Errorf("effectiveWorkers(4) = %d", got)
	}
	if got := effectiveWorkers(4, 2); got != 2 {
		t.Errorf("effectiveWorkers(4, n=2) = %d, want clamped to n", got)
	}
	if got := effectiveWorkers(-1, 1<<20); got != runtime.GOMAXPROCS(0) {
		t.Errorf("effectiveWorkers(-1) = %d, want GOMAXPROCS", got)
	}
}
