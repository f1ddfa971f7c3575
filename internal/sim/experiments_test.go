package sim

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
)

func TestInfectionExperimentValidation(t *testing.T) {
	t.Parallel()
	if _, err := InfectionExperiment(DefaultOptions(10), 0, 1); err == nil {
		t.Error("zero rounds accepted")
	}
	if _, err := InfectionExperiment(DefaultOptions(10), 5, 0); err == nil {
		t.Error("zero repeats accepted")
	}
	bad := DefaultOptions(1)
	if _, err := InfectionExperiment(bad, 5, 1); err == nil {
		t.Error("invalid options accepted")
	}
}

// TestScenarioValidate checks the per-experiment parameters of a run: the
// rounds and rate that each experiment family's entry point
// validates on top of the cluster Options (those rows live in
// TestOptionsValidate).
func TestScenarioValidate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		run     func() error
		wantErr string // "" = valid
	}{
		{"negative reliability rate", func() error {
			opts := DefaultReliabilityOptions(64)
			opts.Rate = -1
			_, err := ReliabilityExperiment(opts)
			return err
		}, "reliability"},
		{"topics", func() error {
			_, err := TopicExperiment(TopicOptions{Subscribers: 40, Topics: 4, ZipfS: 1, Seed: 1}, 3, 1)
			return err
		}, ""},
		{"negative rounds", func() error {
			_, err := InfectionExperiment(DefaultOptions(64), -1, 1)
			return err
		}, "rounds"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			err := tc.run()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("accepted, want error containing %q", tc.wantErr)
			case err != nil && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestInfectionEventClockMsDelay runs an infection trace end to end on the
// event clock, four shards, under a millisecond delay model, and checks
// the trace disseminates.
func TestInfectionEventClockMsDelay(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions(125)
	opts.Seed = 9
	opts.Clock = ClockEvent
	opts.PeriodMs = 200
	opts.Workers = 4
	opts.Lpbcast.AssumeFromDigest = true
	opts.Delay = fault.Millis{Model: fault.UniformDelay{Min: 10, Max: 400}}
	res, err := InfectionExperiment(opts, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if last := res.PerRound[len(res.PerRound)-1]; last < 125*0.9 {
		t.Errorf("event-clock trace infected only %v of 125", last)
	}
}

func TestInfectionMatchesAnalysis(t *testing.T) {
	t.Parallel()
	// Fig. 5(a)'s claim: simulation tracks the Markov analysis closely.
	const n, rounds = 125, 8
	chain, err := analysis.NewChain(analysis.DefaultParams(n))
	if err != nil {
		t.Fatal(err)
	}
	theory := chain.ExpectedInfected(rounds)
	res, err := InfectionExperiment(lpbcastInfectionOptions(n, 15, 3, 42, RunConfig{}), rounds, 8)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r <= rounds; r++ {
		diff := res.PerRound[r] - theory[r]
		if diff < 0 {
			diff = -diff
		}
		// Allow sampling noise: 20% of n plus a small absolute slack.
		if diff > 0.20*n+3 {
			t.Errorf("round %d: sim %v vs theory %v", r, res.PerRound[r], theory[r])
		}
	}
	// Full infection by round 8 (the paper's Fig. 2/5 plateau).
	if res.PerRound[rounds] < 0.95*n {
		t.Errorf("only %v infected after %d rounds", res.PerRound[rounds], rounds)
	}
}

func TestInfectionMonotone(t *testing.T) {
	t.Parallel()
	res, err := InfectionExperiment(lpbcastInfectionOptions(60, 10, 3, 1, RunConfig{}), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerRound[0] != 1 {
		t.Fatalf("PerRound[0] = %v", res.PerRound[0])
	}
	for r := 1; r < len(res.PerRound); r++ {
		if res.PerRound[r] < res.PerRound[r-1] {
			t.Fatalf("infection decreased at round %d: %v", r, res.PerRound)
		}
	}
	if res.Runs != 3 {
		t.Fatalf("Runs = %d", res.Runs)
	}
}

func TestRoundsToReach(t *testing.T) {
	t.Parallel()
	r := InfectionResult{PerRound: []float64{1, 5, 80, 125}}
	if got, ok := r.RoundsToReach(80); !ok || got != 2 {
		t.Fatalf("RoundsToReach(80) = %v,%v", got, ok)
	}
	if got, ok := r.RoundsToReach(1000); ok || got != 4 {
		t.Fatalf("RoundsToReach(1000) = %v,%v", got, ok)
	}
}

func TestViewSizeBarelyAffectsLatency(t *testing.T) {
	t.Parallel()
	// Fig. 5(b): l has only a slight effect on dissemination speed.
	at4 := map[int]float64{}
	for _, l := range []int{10, 20} {
		res, err := InfectionExperiment(lpbcastInfectionOptions(125, l, 3, 9, RunConfig{}), 8, 6)
		if err != nil {
			t.Fatal(err)
		}
		at4[l] = res.PerRound[4]
	}
	// Both reach a majority by round 4 and the gap stays small relative to n.
	for l, v := range at4 {
		if v < 50 {
			t.Errorf("l=%d: only %v infected by round 4", l, v)
		}
	}
	diff := at4[10] - at4[20]
	if diff < 0 {
		diff = -diff
	}
	if diff > 35 {
		t.Errorf("l=10 vs l=20 differ by %v at round 4; dependence should be weak", diff)
	}
}

func TestPbcastSlowerThanLpbcast(t *testing.T) {
	t.Parallel()
	// Fig. 7(a): with the same partial view and fanout, lpbcast infects
	// faster than pbcast (push vs pull, unlimited vs limited repetitions).
	const rounds = 6
	lp, err := InfectionExperiment(lpbcastInfectionOptions(125, 15, 5, 44, RunConfig{}), rounds, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions(125)
	o.Seed = 45
	o.Protocol = PbcastPartial
	o.Pbcast.Fanout = 5
	pb, err := InfectionExperiment(o, rounds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lp.PerRound[3] <= pb.PerRound[3] {
		t.Errorf("round 3: lpbcast %v not ahead of pbcast %v", lp.PerRound[3], pb.PerRound[3])
	}
	if lp.PerRound[rounds] < 115 {
		t.Errorf("lpbcast incomplete after %d rounds: %v", rounds, lp.PerRound[rounds])
	}
	if pb.PerRound[rounds] < 20 {
		t.Errorf("pbcast made no progress: %v", pb.PerRound)
	}
}

func TestPbcastPartialTracksTotal(t *testing.T) {
	t.Parallel()
	// Fig. 7(a): pbcast over the partial view behaves like pbcast over the
	// total view — the membership layer does not slow dissemination.
	const rounds = 6
	get := func(p Protocol) []float64 {
		o := DefaultOptions(125)
		o.Seed = 46
		o.Protocol = p
		o.Pbcast.Fanout = 5
		res, err := InfectionExperiment(o, rounds, 4)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerRound
	}
	partial, total := get(PbcastPartial), get(PbcastTotal)
	for r := 2; r <= rounds; r++ {
		ratio := partial[r] / total[r]
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("round %d: partial %v vs total %v diverge", r, partial[r], total[r])
		}
	}
}

func TestReliabilityOptionsValidation(t *testing.T) {
	t.Parallel()
	opts := DefaultReliabilityOptions(20)
	opts.Rate = 0
	if _, err := ReliabilityExperiment(opts); err == nil {
		t.Error("zero rate accepted")
	}
	opts = DefaultReliabilityOptions(20)
	opts.PublishRounds = 0
	if _, err := ReliabilityExperiment(opts); err == nil {
		t.Error("zero publish rounds accepted")
	}
	opts = DefaultReliabilityOptions(1)
	if _, err := ReliabilityExperiment(opts); err == nil {
		t.Error("bad cluster options accepted")
	}
}

func TestReliabilityHighAtPaperOperatingPoint(t *testing.T) {
	t.Parallel()
	// Fig. 6(a) at l=15, |eventIds|m=60, rate 40: the paper measures ≈0.93.
	opts := DefaultReliabilityOptions(125)
	opts.PublishRounds = 10
	opts.DrainRounds = 10
	res, err := ReliabilityExperiment(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability < 0.85 {
		t.Errorf("reliability = %v, want ≥ 0.85", res.Reliability)
	}
	if res.Partitioned {
		t.Error("membership partitioned during the run")
	}
	if res.Events < 350 {
		t.Errorf("published only %d events", res.Events)
	}
}

func TestReliabilityGrowsWithDigestBound(t *testing.T) {
	t.Parallel()
	// Fig. 6(b)'s strong dependence.
	get := func(size int) float64 {
		opts := DefaultReliabilityOptions(125)
		opts.Cluster.Seed = uint64(size)
		opts.Cluster.Lpbcast.MaxEventIDs = size
		opts.Cluster.Lpbcast.MaxEvents = size
		opts.PublishRounds = 10
		opts.DrainRounds = 10
		res, err := ReliabilityExperiment(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Reliability
	}
	small, large := get(10), get(120)
	if small >= large {
		t.Errorf("reliability(10)=%v not below reliability(120)=%v", small, large)
	}
	if large < 0.95 {
		t.Errorf("reliability at 120 = %v, want near 1", large)
	}
	if small > 0.8 {
		t.Errorf("reliability at 10 = %v, want visibly degraded", small)
	}
}

func TestQuickFigureTables(t *testing.T) {
	// The full figure builders are exercised end-to-end at quick scale.
	t.Parallel()
	scale := FigureScale{Repeats: 1, PublishRounds: 6, DrainRounds: 6}
	type fig struct {
		name string
		run  func() (interface{ Render() string }, error)
	}
	figs := []fig{
		{"5b", func() (interface{ Render() string }, error) { return Figure5b(scale) }},
		{"6a", func() (interface{ Render() string }, error) { return Figure6a(scale) }},
		{"7a", func() (interface{ Render() string }, error) { return Figure7a(scale) }},
		{"7b", func() (interface{ Render() string }, error) { return Figure7b(scale) }},
	}
	for _, f := range figs {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			tbl, err := f.run()
			if err != nil {
				t.Fatal(err)
			}
			if tbl.Render() == "" {
				t.Error("empty table")
			}
		})
	}
}

func TestFigureScales(t *testing.T) {
	t.Parallel()
	if FullScale().Repeats <= QuickScale().Repeats {
		t.Error("full scale not larger than quick scale")
	}
}
