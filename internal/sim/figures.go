package sim

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/stats"
)

// FigureScale trades fidelity for runtime in the figure reproductions.
// Full matches the paper's setup; Quick shrinks repeats and rounds for
// tests and smoke runs while preserving every qualitative shape.
type FigureScale struct {
	Repeats       int
	PublishRounds int
	DrainRounds   int
	// RunConfig is threaded into every cluster the figures build: Workers
	// is the shard count (0/1 one shard, run inline; <0 GOMAXPROCS), Clock
	// the time base. Results are identical for any
	// Workers; only the wall clock changes. The embed keeps the historical
	// scale.Workers spelling working unchanged.
	RunConfig
}

// FullScale is the paper-faithful setting.
func FullScale() FigureScale {
	return FigureScale{Repeats: 10, PublishRounds: 20, DrainRounds: 12}
}

// QuickScale is the fast setting used by unit tests.
func QuickScale() FigureScale {
	return FigureScale{Repeats: 3, PublishRounds: 10, DrainRounds: 10}
}

// lpbcastInfectionOptions returns the standard lpbcast simulation options
// for infection traces: uniform initial views, AssumeFromDigest (§5.2
// methodology, which also realizes the analysis' unlimited-repetition
// gossiping), fanout f, view size l.
func lpbcastInfectionOptions(n, l, f int, seed uint64, rc RunConfig) Options {
	o := DefaultOptions(n)
	o.Seed = seed
	o.RunConfig = rc
	o.Lpbcast.AssumeFromDigest = true
	o.Lpbcast.Fanout = f
	o.Lpbcast.Membership.MaxView = l
	o.Lpbcast.Membership.MaxSubs = l
	// One traced event: digests never overflow at the defaults.
	return o
}

// Figure5a reproduces Fig. 5(a): analysis vs simulation of the expected
// number of infected processes per round, for n ∈ {125, 250, 500}.
func Figure5a(scale FigureScale) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:   "Fig. 5(a) — analysis vs simulation (l=15, F=3)",
		XLabel:  "round",
		YFormat: "%.2f",
	}
	const rounds = 10
	for _, n := range []int{125, 250, 500} {
		chain, err := analysis.NewChain(analysis.DefaultParams(n))
		if err != nil {
			return nil, err
		}
		theory := &stats.Series{Name: fmt.Sprintf("n=%d,theory", n)}
		for r, e := range chain.ExpectedInfected(rounds) {
			theory.Add(float64(r), e)
		}
		tbl.Series = append(tbl.Series, theory)

		res, err := InfectionExperiment(lpbcastInfectionOptions(n, 15, 3, 42, scale.RunConfig), rounds, scale.Repeats)
		if err != nil {
			return nil, err
		}
		practice := &stats.Series{Name: fmt.Sprintf("n=%d,practice", n)}
		for r, v := range res.PerRound {
			practice.Add(float64(r), v)
		}
		tbl.Series = append(tbl.Series, practice)
	}
	return tbl, nil
}

// Figure5b reproduces Fig. 5(b): simulated infection curves for view sizes
// l ∈ {10, 15, 20} at n=125, F=3.
func Figure5b(scale FigureScale) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:   "Fig. 5(b) — infection vs view size (n=125, F=3)",
		XLabel:  "round",
		YFormat: "%.2f",
	}
	for _, l := range []int{10, 15, 20} {
		res, err := InfectionExperiment(lpbcastInfectionOptions(125, l, 3, 43, scale.RunConfig), 8, scale.Repeats)
		if err != nil {
			return nil, err
		}
		s := &stats.Series{Name: fmt.Sprintf("l=%d", l)}
		for r, v := range res.PerRound {
			s.Add(float64(r), v)
		}
		tbl.Series = append(tbl.Series, s)
	}
	return tbl, nil
}

// FigureLatency is an extension figure opened by the network delay model:
// infection curves of the same system (n=250, l=15, F=3) over three
// network shapes — the paper's flat zero-delay network (§5.1), a
// two-cluster LAN/WAN topology whose WAN link takes 2-4 rounds, and a
// three-tier hierarchical topology — with each series annotated with the
// run's mean delivery latency in rounds (InfectionResult.
// MeanDeliveryRound). With delays in force that latency is a real network
// quantity, time spent in flight included, rather than a hop count.
func FigureLatency(scale FigureScale) (*stats.Table, error) {
	const n, rounds = 250, 18
	shapes := []struct {
		name string
		mut  func(*Options)
	}{
		{"flat", func(*Options) {}},
		{"two-cluster", func(o *Options) {
			o.Topology = fault.TwoCluster{
				Split: proto.ProcessID(n / 2),
				Local: fault.LinkProfile{Epsilon: -1},
				WAN:   fault.LinkProfile{Epsilon: -1, MinDelay: 2, MaxDelay: 4},
			}
		}},
		{"hierarchical", func(o *Options) {
			o.Topology = fault.Hierarchical{
				ClusterSize: 25, ClustersPerRegion: 5,
				Local:  fault.LinkProfile{Epsilon: -1},
				WAN:    fault.LinkProfile{Epsilon: -1, MinDelay: 1, MaxDelay: 2},
				Global: fault.LinkProfile{Epsilon: -1, MinDelay: 3, MaxDelay: 5},
			}
		}},
	}
	tbl := &stats.Table{
		Title:   fmt.Sprintf("Extension — infection latency by network shape (n=%d, l=15, F=3, ε=0.05)", n),
		XLabel:  "round",
		YFormat: "%.2f",
	}
	for _, sh := range shapes {
		o := lpbcastInfectionOptions(n, 15, 3, 46, scale.RunConfig)
		sh.mut(&o)
		res, err := InfectionExperiment(o, rounds, scale.Repeats)
		if err != nil {
			return nil, fmt.Errorf("latency/%s: %w", sh.name, err)
		}
		s := &stats.Series{Name: fmt.Sprintf("%s (mean %.1f rounds)", sh.name, res.MeanDeliveryRound())}
		for r, v := range res.PerRound {
			s.Add(float64(r), v)
		}
		tbl.Series = append(tbl.Series, s)
	}
	return tbl, nil
}

// reliabilityForViewSize runs one Fig. 6(a)-style measurement point.
func reliabilityForViewSize(l, notifList, fanout int, scale FigureScale, seed uint64) (float64, error) {
	opts := DefaultReliabilityOptions(125)
	opts.Cluster.Seed = seed
	opts.Cluster.RunConfig = scale.RunConfig
	opts.Cluster.Lpbcast.Fanout = fanout
	opts.Cluster.Lpbcast.Membership.MaxView = l
	opts.Cluster.Lpbcast.Membership.MaxSubs = l
	opts.Cluster.Lpbcast.MaxEventIDs = notifList
	opts.Cluster.Lpbcast.MaxEvents = notifList
	opts.PublishRounds = scale.PublishRounds
	opts.DrainRounds = scale.DrainRounds
	sum := 0.0
	for rep := 0; rep < scale.Repeats; rep++ {
		o := opts
		o.Cluster.Seed = seed + uint64(rep)*7919
		res, err := ReliabilityExperiment(o)
		if err != nil {
			return 0, err
		}
		sum += res.Reliability
	}
	return sum / float64(scale.Repeats), nil
}

// Figure6a reproduces Fig. 6(a): delivery reliability (1-β) against the
// view size l, with rate 40 msg/round and notification list size 60.
func Figure6a(scale FigureScale) (*stats.Table, error) {
	s := &stats.Series{Name: "reliability"}
	for _, l := range []int{15, 20, 25, 30, 35} {
		rel, err := reliabilityForViewSize(l, 60, 3, scale, 1000+uint64(l))
		if err != nil {
			return nil, err
		}
		s.Add(float64(l), rel)
	}
	return &stats.Table{
		Title:   "Fig. 6(a) — reliability vs view size (n=125, rate=40/round, |eventIds|m=60, F=3)",
		XLabel:  "view size",
		YFormat: "%.4f",
		Series:  []*stats.Series{s},
	}, nil
}

// Figure6b reproduces Fig. 6(b): delivery reliability against the
// notification list size |eventIds|m, at l=15 and rate 40 msg/round.
func Figure6b(scale FigureScale) (*stats.Table, error) {
	s := &stats.Series{Name: "reliability"}
	for _, size := range []int{10, 20, 40, 60, 80, 100, 120} {
		rel, err := reliabilityForViewSize(15, size, 3, scale, 2000+uint64(size))
		if err != nil {
			return nil, err
		}
		s.Add(float64(size), rel)
	}
	return &stats.Table{
		Title:   "Fig. 6(b) — reliability vs notification list size (n=125, l=15, rate=40/round)",
		XLabel:  "notification list size",
		YFormat: "%.4f",
		Series:  []*stats.Series{s},
	}, nil
}

// Figure7a reproduces Fig. 7(a): infection curves of lpbcast, pbcast over
// a partial view, and pbcast over the total view (n=125, l=15, F=5).
func Figure7a(scale FigureScale) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:   "Fig. 7(a) — lpbcast vs pbcast (n=125, l=15, F=5)",
		XLabel:  "round",
		YFormat: "%.2f",
	}
	const rounds = 6

	lp, err := InfectionExperiment(lpbcastInfectionOptions(125, 15, 5, 44, scale.RunConfig), rounds, scale.Repeats)
	if err != nil {
		return nil, err
	}
	s := &stats.Series{Name: "lpbcast"}
	for r, v := range lp.PerRound {
		s.Add(float64(r), v)
	}
	tbl.Series = append(tbl.Series, s)

	for _, proto := range []Protocol{PbcastPartial, PbcastTotal} {
		o := DefaultOptions(125)
		o.Seed = 45
		o.RunConfig = scale.RunConfig
		o.Protocol = proto
		o.Pbcast.Fanout = 5
		o.Pbcast.Membership.MaxView = 15
		res, err := InfectionExperiment(o, rounds, scale.Repeats)
		if err != nil {
			return nil, err
		}
		s := &stats.Series{Name: proto.String()}
		for r, v := range res.PerRound {
			s.Add(float64(r), v)
		}
		tbl.Series = append(tbl.Series, s)
	}
	return tbl, nil
}

// Figure7b reproduces Fig. 7(b): delivery reliability of pbcast over a
// random partial view, against the view size l (F=5, rate 40, store 60).
func Figure7b(scale FigureScale) (*stats.Table, error) {
	s := &stats.Series{Name: "reliability"}
	for _, l := range []int{15, 20, 25, 30, 35} {
		opts := DefaultReliabilityOptions(125)
		opts.Cluster.RunConfig = scale.RunConfig
		opts.Cluster.Protocol = PbcastPartial
		opts.Cluster.Pbcast.Fanout = 5
		opts.Cluster.Pbcast.Membership.MaxView = l
		opts.Cluster.Pbcast.Membership.MaxSubs = l
		opts.Cluster.Pbcast.MaxStore = 60
		opts.PublishRounds = scale.PublishRounds
		opts.DrainRounds = scale.DrainRounds
		sum := 0.0
		for rep := 0; rep < scale.Repeats; rep++ {
			o := opts
			o.Cluster.Seed = 3000 + uint64(l) + uint64(rep)*7919
			res, err := ReliabilityExperiment(o)
			if err != nil {
				return nil, err
			}
			sum += res.Reliability
		}
		s.Add(float64(l), sum/float64(scale.Repeats))
	}
	return &stats.Table{
		Title:   "Fig. 7(b) — pbcast/partial-view reliability vs view size (n=125, rate=40/round, store=60, F=5)",
		XLabel:  "view size",
		YFormat: "%.4f",
		Series:  []*stats.Series{s},
	}, nil
}
