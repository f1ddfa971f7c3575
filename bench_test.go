// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§5; cmd/lpbcast-sim -fig names the same figures) plus
// ablations of the §4 and §6.1 design choices (the BenchmarkAblation*
// functions at the end of this file). Each benchmark regenerates its
// figure's data and reports the headline quantity via b.ReportMetric; run
// with -v to see the full gnuplot-style tables:
//
//	go test -bench=Figure -benchtime=1x -v
//
// The benchmarks default to the quick experiment scale so a full -bench=.
// sweep stays tractable; cmd/lpbcast-analysis and cmd/lpbcast-sim print
// the same figures at full scale.
package lpbcast

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// benchScale keeps -bench=. affordable; the cmd tools run FullScale.
func benchScale() sim.FigureScale { return sim.QuickScale() }

// benchWorkers is the shard count of the parallel executor variants: all
// cores, but at least 2 so the sharded code path (and its zero-alloc
// emission) is exercised even on a single-core runner.
func benchWorkers() int {
	if w := runtime.GOMAXPROCS(0); w > 2 {
		return w
	}
	return 2
}

// logTable renders tbl under -v.
func logTable(b *testing.B, tbl *stats.Table) {
	b.Helper()
	b.Log("\n" + tbl.Render())
}

// BenchmarkFigure2Fanout regenerates Fig. 2: expected infected processes
// per round for F=3..6 at n=125. Reported metric: rounds for F=3 to infect
// 99% of the system.
func BenchmarkFigure2Fanout(b *testing.B) {
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = analysis.Figure2()
		if err != nil {
			b.Fatal(err)
		}
	}
	chain, err := analysis.NewChain(analysis.DefaultParams(125))
	if err != nil {
		b.Fatal(err)
	}
	rounds, _ := chain.RoundsToInfect(0.99, 30)
	b.ReportMetric(rounds, "rounds-to-99%")
	logTable(b, tbl)
}

// BenchmarkFigure3aSystemSize regenerates Fig. 3(a): infection curves for
// n = 125..1000.
func BenchmarkFigure3aSystemSize(b *testing.B) {
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = analysis.Figure3a()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

// BenchmarkFigure3bRounds99 regenerates Fig. 3(b): rounds to infect 99%
// against system size. Reported metric: the n=1000 value (paper ≈ 6.8).
func BenchmarkFigure3bRounds99(b *testing.B) {
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = analysis.Figure3b()
		if err != nil {
			b.Fatal(err)
		}
	}
	if v, ok := tbl.Series[0].YAt(1000); ok {
		b.ReportMetric(v, "rounds@n=1000")
	}
	logTable(b, tbl)
}

// BenchmarkFigure4Partition regenerates Fig. 4: partition probability
// Ψ(i, n, l) for l=3 and n ∈ {50, 75, 125}. Reported metric: the peak
// probability for n=50 (printed equation 4: ≈1.2e-17).
func BenchmarkFigure4Partition(b *testing.B) {
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		tbl = analysis.Figure4()
	}
	b.ReportMetric(analysis.PartitionProbability(4, 50, 3), "psi(4,50,3)")
	logTable(b, tbl)
}

// BenchmarkEquation5Partition regenerates the eq. 5 table: rounds until
// partition probability reaches P for n=50, l=3 (paper: ≈1e12 at P=0.9).
func BenchmarkEquation5Partition(b *testing.B) {
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		tbl = analysis.Equation5Table(50, 3)
	}
	b.ReportMetric(analysis.RoundsToPartition(50, 3, 0.9), "rounds@P=0.9")
	logTable(b, tbl)
}

// BenchmarkFigure5aSimVsAnalysis regenerates Fig. 5(a): simulated vs
// analytical infection curves for n ∈ {125, 250, 500}. Reported metric:
// the largest |sim - theory| gap at n=125, in processes. The sub-benchmarks
// compare the sequential round executor against the sharded parallel one
// (identical output; only ns/op and allocs/op change).
func BenchmarkFigure5aSimVsAnalysis(b *testing.B) {
	for _, v := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 0},
		{fmt.Sprintf("workers=%d", benchWorkers()), benchWorkers()},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			scale := benchScale().WithWorkers(v.workers)
			var tbl *stats.Table
			for i := 0; i < b.N; i++ {
				var err error
				tbl, err = sim.Figure5a(scale)
				if err != nil {
					b.Fatal(err)
				}
			}
			maxGap := 0.0
			for r := 0.0; r <= 10; r++ {
				th, ok1 := tbl.Series[0].YAt(r) // n=125,theory
				pr, ok2 := tbl.Series[1].YAt(r) // n=125,practice
				if ok1 && ok2 {
					gap := th - pr
					if gap < 0 {
						gap = -gap
					}
					if gap > maxGap {
						maxGap = gap
					}
				}
			}
			b.ReportMetric(maxGap, "max-gap@n=125")
			logTable(b, tbl)
		})
	}
}

// BenchmarkInfection10k measures the executor head to head at production
// scale: one 10,000-process infection trace (12 rounds, |view|=15, F=3),
// sequential vs sharded. The results are bit-identical; the sharded
// executor should win on both time and allocations (shared-gossip
// emission, pooled round buffers).
func BenchmarkInfection10k(b *testing.B) {
	for _, v := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 0},
		{fmt.Sprintf("workers=%d", benchWorkers()), benchWorkers()},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var infected float64
			for i := 0; i < b.N; i++ {
				o := sim.DefaultOptions(10_000)
				o.Seed = 3
				o.Workers = v.workers
				o.Lpbcast.AssumeFromDigest = true
				res, err := sim.InfectionExperiment(o, 12, 1)
				if err != nil {
					b.Fatal(err)
				}
				infected = res.PerRound[len(res.PerRound)-1]
			}
			b.ReportMetric(infected, "infected@round12")
		})
	}
}

// BenchmarkFigure5aSteadyRound measures one steady-state synchronous
// round at the Fig. 5(a) scale: a fully-infected n=500 cluster after a
// long buffer-warming run. The sequential executor is the cloning
// reference; the sharded executor runs engines in emission-reuse mode
// over retained buffers and persistent workers, and must not allocate
// (~0 allocs/op — the ceiling is 2, gated in CI through
// BENCH_executor.json via cmd/lpbcast-bench).
func BenchmarkFigure5aSteadyRound(b *testing.B) {
	for _, v := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 0},
		{fmt.Sprintf("workers=%d", benchWorkers()), benchWorkers()},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			opts := sim.DefaultOptions(500)
			opts.Seed = 9
			opts.Tau = 0
			opts.Lpbcast.AssumeFromDigest = true
			opts.Workers = v.workers
			cluster, err := sim.NewCluster(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			if _, err := cluster.PublishAt(0); err != nil {
				b.Fatal(err)
			}
			for r := 0; r < 300; r++ { // infect fully, reach buffer high-water
				cluster.RunRound()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cluster.RunRound()
			}
		})
	}
}

// BenchmarkFigure5bViewSize regenerates Fig. 5(b): infection curves for
// l ∈ {10, 15, 20} at n=125.
func BenchmarkFigure5bViewSize(b *testing.B) {
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = sim.Figure5b(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

// BenchmarkFigure6aReliabilityVsViewSize regenerates Fig. 6(a):
// reliability 1-β against view size l (n=125, rate 40/round,
// |eventIds|m=60, F=3). Reported metric: reliability at l=15 (paper ≈0.93).
func BenchmarkFigure6aReliabilityVsViewSize(b *testing.B) {
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = sim.Figure6a(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	if v, ok := tbl.Series[0].YAt(15); ok {
		b.ReportMetric(v, "reliability@l=15")
	}
	logTable(b, tbl)
}

// BenchmarkFigure6bReliabilityVsDigest regenerates Fig. 6(b): reliability
// against the notification list size |eventIds|m (n=125, l=15). Reported
// metrics: reliability at sizes 10 and 120 (the paper's steep climb).
func BenchmarkFigure6bReliabilityVsDigest(b *testing.B) {
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = sim.Figure6b(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	if v, ok := tbl.Series[0].YAt(10); ok {
		b.ReportMetric(v, "reliability@10")
	}
	if v, ok := tbl.Series[0].YAt(120); ok {
		b.ReportMetric(v, "reliability@120")
	}
	logTable(b, tbl)
}

// BenchmarkFigure7aPbcastComparison regenerates Fig. 7(a): infection
// curves of lpbcast vs pbcast over partial and total views (n=125, l=15,
// F=5). Reported metric: lpbcast's lead over pbcast/partial at round 3.
func BenchmarkFigure7aPbcastComparison(b *testing.B) {
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = sim.Figure7a(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	lp, ok1 := tbl.Series[0].YAt(3)
	pb, ok2 := tbl.Series[1].YAt(3)
	if ok1 && ok2 && pb > 0 {
		b.ReportMetric(lp/pb, "lpbcast/pbcast@round3")
	}
	logTable(b, tbl)
}

// BenchmarkFigure7bPbcastReliability regenerates Fig. 7(b): reliability of
// pbcast over a random partial view against l (F=5, rate 40, store 60).
func BenchmarkFigure7bPbcastReliability(b *testing.B) {
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = sim.Figure7b(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	if v, ok := tbl.Series[0].YAt(15); ok {
		b.ReportMetric(v, "reliability@l=15")
	}
	logTable(b, tbl)
}

// --- Ablations of the §4 and §6.1 design choices ----------------------

// mixViews runs gossip-only mixing over n engines with the given policy
// and returns the final in-degree stddev (0 = perfectly uniform views).
func mixViews(b *testing.B, policy membership.Policy, rounds int) float64 {
	b.Helper()
	const n = 80
	cfg := membership.DefaultConfig()
	cfg.MaxView = 8
	cfg.MaxSubs = 8
	cfg.Policy = policy
	root := rng.New(777)
	managers := make([]*membership.Manager, n)
	for i := range managers {
		m, err := membership.NewManager(proto.ProcessID(i+1), cfg, root.Split())
		if err != nil {
			b.Fatal(err)
		}
		managers[i] = m
		m.Seed([]proto.ProcessID{proto.ProcessID((i+1)%n + 1)})
	}
	for r := 0; r < rounds; r++ {
		type msg struct {
			to   int
			subs []proto.ProcessID
		}
		var msgs []msg
		for _, m := range managers {
			for _, t := range m.Targets(3) {
				msgs = append(msgs, msg{int(t) - 1, m.MakeSubs()})
			}
		}
		for _, mg := range msgs {
			managers[mg.to].ApplySubs(mg.subs)
		}
	}
	g := membership.Graph{}
	for _, m := range managers {
		g[m.Self()] = m.View()
	}
	_, stddev, _, _ := g.InDegreeStats()
	if g.Partitioned() {
		b.Fatal("views partitioned during mixing")
	}
	return stddev
}

// BenchmarkAblationWeightedViews compares the §6.1 weighted-view heuristic
// with uniform random truncation: the weighted policy should push the
// in-degree distribution closer to uniform (smaller stddev).
func BenchmarkAblationWeightedViews(b *testing.B) {
	for _, policy := range []membership.Policy{membership.Uniform, membership.Weighted} {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			var stddev float64
			for i := 0; i < b.N; i++ {
				stddev = mixViews(b, policy, 60)
			}
			b.ReportMetric(stddev, "indegree-stddev")
		})
	}
}

// BenchmarkAblationMembershipFrequency reproduces the §6.1 frequency
// experiment: gossiping membership information only every k-th round
// (k > 1) slows view mixing and hurts dissemination, starting from a ring
// topology where view quality depends entirely on membership gossip.
func BenchmarkAblationMembershipFrequency(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		k := k
		b.Run(map[int]string{1: "k=1", 2: "k=2", 4: "k=4"}[k], func(b *testing.B) {
			var infected float64
			for i := 0; i < b.N; i++ {
				o := sim.DefaultOptions(125)
				o.Seed = 321
				o.RingSeed = true
				o.Lpbcast.AssumeFromDigest = true
				o.Lpbcast.MembershipEvery = k
				res, err := sim.InfectionExperiment(o, 8, 3)
				if err != nil {
					b.Fatal(err)
				}
				infected = res.PerRound[6]
			}
			b.ReportMetric(infected, "infected@round6")
		})
	}
}

// islandEngines builds two internally-connected islands of engines with no
// cross-island knowledge, optionally sharing prioritary processes.
func islandEngines(b *testing.B, prioritary []proto.ProcessID) []*core.Engine {
	b.Helper()
	const island = 10
	root := rng.New(555)
	cfg := core.DefaultConfig()
	cfg.Membership.MaxView = 6
	cfg.Membership.MaxSubs = 6
	cfg.Membership.Prioritary = prioritary
	var engines []*core.Engine
	for i := 0; i < 2*island; i++ {
		e, err := core.New(proto.ProcessID(i+1), cfg, nil, root.Split())
		if err != nil {
			b.Fatal(err)
		}
		base := (i / island) * island // island offset
		var seeds []proto.ProcessID
		for j := 1; j <= 3; j++ {
			seeds = append(seeds, proto.ProcessID(base+(i%island+j)%island+1))
		}
		e.Seed(seeds)
		engines = append(engines, e)
	}
	return engines
}

// BenchmarkAblationPrioritary demonstrates §4.4: without prioritary
// processes, two isolated islands never merge (their views reference only
// island members); with a shared prioritary process they reconnect.
func BenchmarkAblationPrioritary(b *testing.B) {
	run := func(b *testing.B, prioritary []proto.ProcessID) int {
		engines := islandEngines(b, prioritary)
		for round := uint64(1); round <= 30; round++ {
			var wire []proto.Message
			for _, e := range engines {
				wire = append(wire, e.TickAppend(round, nil)...)
			}
			for _, m := range wire {
				if int(m.To) >= 1 && int(m.To) <= len(engines) {
					engines[m.To-1].HandleMessageAppend(m, round, nil)
				}
			}
		}
		g := membership.Graph{}
		for _, e := range engines {
			g[e.Self()] = e.View()
		}
		return len(g.Components())
	}
	b.Run("without", func(b *testing.B) {
		var comps int
		for i := 0; i < b.N; i++ {
			comps = run(b, nil)
		}
		b.ReportMetric(float64(comps), "components")
	})
	b.Run("with", func(b *testing.B) {
		var comps int
		for i := 0; i < b.N; i++ {
			comps = run(b, []proto.ProcessID{1}) // island A's p1, known to all
		}
		b.ReportMetric(float64(comps), "components")
	})
}

// BenchmarkAblationDigestCompaction compares the flat windowed digest with
// the §3.2 compact (per-sender watermark) digest under the reliability
// workload: compaction advertises the full delivery history in O(origins)
// identifiers and lifts reliability to ~1.
func BenchmarkAblationDigestCompaction(b *testing.B) {
	run := func(b *testing.B, mode core.DigestMode) float64 {
		opts := sim.DefaultReliabilityOptions(125)
		opts.Cluster.Seed = 4242
		opts.Cluster.Lpbcast.DigestMode = mode
		opts.PublishRounds = 8
		opts.DrainRounds = 8
		res, err := sim.ReliabilityExperiment(opts)
		if err != nil {
			b.Fatal(err)
		}
		return res.Reliability
	}
	for _, mode := range []core.DigestMode{core.FlatDigest, core.CompactDigest} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var rel float64
			for i := 0; i < b.N; i++ {
				rel = run(b, mode)
			}
			b.ReportMetric(rel, "reliability")
		})
	}
}

// BenchmarkLiveClusterBroadcast measures the live goroutine-per-node
// runtime end to end: time for one publish to reach all 32 nodes.
func BenchmarkLiveClusterBroadcast(b *testing.B) {
	cluster, err := NewCluster(ClusterConfig{
		N:              32,
		GossipInterval: 2 * time.Millisecond,
		Seed:           1,
		NodeOptions:    []Option{WithViewSize(8)},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := cluster.Node(ProcessID(i%32 + 1)).Publish([]byte("bench"))
		if err != nil {
			b.Fatal(err)
		}
		target := ProcessID((i+16)%32 + 1)
		if !cluster.AwaitDelivery(target, ev.ID, 5*time.Second) {
			b.Fatalf("delivery %d timed out", i)
		}
	}
}

// BenchmarkExtensionCrashResilience measures survivor reliability when a
// large fraction of the system crashes simultaneously mid-dissemination —
// the §7 fault-tolerance claim, quantified (extension experiment).
func BenchmarkExtensionCrashResilience(b *testing.B) {
	for _, frac := range []float64{0.1, 0.3, 0.5} {
		frac := frac
		b.Run(map[float64]string{0.1: "crash=10%", 0.3: "crash=30%", 0.5: "crash=50%"}[frac], func(b *testing.B) {
			var rel float64
			for i := 0; i < b.N; i++ {
				o := sim.DefaultOptions(125)
				o.Seed = 11
				o.Lpbcast.AssumeFromDigest = true
				res, err := sim.ResilienceExperiment(o, frac, 2, 30, 12)
				if err != nil {
					b.Fatal(err)
				}
				rel = res.SurvivorReliability
			}
			b.ReportMetric(rel, "survivor-reliability")
		})
	}
}

// BenchmarkAblationFirstPhase compares pbcast with and without its
// unreliable first-phase multicast (the "bimodal" in Bimodal Multicast):
// the first phase front-loads delivery, gossip repairs the gaps.
func BenchmarkAblationFirstPhase(b *testing.B) {
	run := func(b *testing.B, firstPhase float64) float64 {
		o := sim.DefaultOptions(125)
		o.Seed = 41
		o.Protocol = sim.PbcastPartial
		o.Pbcast.Fanout = 5
		o.FirstPhaseDelivery = firstPhase
		res, err := sim.InfectionExperiment(o, 4, 3)
		if err != nil {
			b.Fatal(err)
		}
		return res.PerRound[2]
	}
	b.Run("gossip-only", func(b *testing.B) {
		var infected float64
		for i := 0; i < b.N; i++ {
			infected = run(b, 0)
		}
		b.ReportMetric(infected, "infected@round2")
	})
	b.Run("bimodal", func(b *testing.B) {
		var infected float64
		for i := 0; i < b.N; i++ {
			infected = run(b, 0.9)
		}
		b.ReportMetric(infected, "infected@round2")
	})
}

// BenchmarkExtensionChurn runs the §3.4 churn experiment: joins and
// graceful leaves at a steady rate while the membership stays connected.
func BenchmarkExtensionChurn(b *testing.B) {
	var res sim.ChurnResult
	for i := 0; i < b.N; i++ {
		o := sim.DefaultChurnOptions(60)
		o.Seed = 17
		var err error
		res, err = sim.ChurnExperiment(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.FinalComponents), "final-components")
	b.ReportMetric(res.FinalInDegreeMean, "final-indegree-mean")
	b.ReportMetric(float64(res.StaleReferences), "stale-refs")
}

// BenchmarkExtensionLoadFlatness validates §3.3's constant-load claim: the
// coefficient of variation of per-round message counts is zero regardless
// of event rate.
func BenchmarkExtensionLoadFlatness(b *testing.B) {
	var res sim.LoadResult
	for i := 0; i < b.N; i++ {
		o := sim.DefaultOptions(125)
		o.Seed = 5
		o.Tau = 0
		o.Lpbcast.AssumeFromDigest = true
		var err error
		res, err = sim.LoadExperiment(o, 40, 20)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Mean, "msgs/round")
	b.ReportMetric(res.CV, "coeff-of-variation")
}

// BenchmarkAblationWeightedEvents compares uniform random event eviction
// with the §6.1-suggested weighted variant ("a similar scheme could also
// be applied to events") under buffer pressure: preferring to drop
// already-redundant notifications should not hurt — and slightly helps —
// delivery reliability.
func BenchmarkAblationWeightedEvents(b *testing.B) {
	run := func(b *testing.B, weighted bool) float64 {
		opts := sim.DefaultReliabilityOptions(125)
		opts.Cluster.Seed = 505
		opts.Cluster.Lpbcast.MaxEvents = 20 // force eviction pressure
		opts.Cluster.Lpbcast.WeightedEventEviction = weighted
		opts.PublishRounds = 8
		opts.DrainRounds = 8
		res, err := sim.ReliabilityExperiment(opts)
		if err != nil {
			b.Fatal(err)
		}
		return res.Reliability
	}
	b.Run("uniform", func(b *testing.B) {
		var rel float64
		for i := 0; i < b.N; i++ {
			rel = run(b, false)
		}
		b.ReportMetric(rel, "reliability")
	})
	b.Run("weighted", func(b *testing.B) {
		var rel float64
		for i := 0; i < b.N; i++ {
			rel = run(b, true)
		}
		b.ReportMetric(rel, "reliability")
	})
}
