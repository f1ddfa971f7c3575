package sim

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/netmodel"
)

// TestScenarioValidate is the sim v2 front-door validation table,
// including the unit-mixing bugfix: a scenario mixing millisecond and
// round-granular delay expressions is rejected loudly instead of silently
// coercing units.
func TestScenarioValidate(t *testing.T) {
	t.Parallel()
	base := func() Scenario {
		return Scenario{Options: DefaultOptions(64)}
	}
	cases := []struct {
		name    string
		mut     func(*Scenario)
		wantErr string // "" = valid
	}{
		{"minimal", func(sc *Scenario) {}, ""},
		{"event clock", func(sc *Scenario) { sc.Clock = ClockEvent }, ""},
		{"unknown clock", func(sc *Scenario) { sc.Clock = Clock(9) }, "unknown clock"},
		{"negative period", func(sc *Scenario) { sc.PeriodMs = -1 }, "PeriodMs"},
		{"period on round clock", func(sc *Scenario) { sc.PeriodMs = 50 }, "PeriodMs"},
		{"ms delay on event clock", func(sc *Scenario) {
			sc.Clock = ClockEvent
			sc.Delay = fault.Millis{Model: fault.FixedDelay{Rounds: 30}}
		}, ""},
		{"ms delay on round clock", func(sc *Scenario) {
			sc.Delay = fault.Millis{Model: fault.FixedDelay{Rounds: 30}}
		}, "requires the event clock"},
		{"ms delay mixed with round topology delays", func(sc *Scenario) {
			sc.Clock = ClockEvent
			sc.Delay = fault.Millis{Model: fault.FixedDelay{Rounds: 30}}
			sc.Topology = wanTopologyFor(sc.N)
		}, "mixes"},
		{"ms delay with zero-delay topology", func(sc *Scenario) {
			sc.Clock = ClockEvent
			sc.Delay = fault.Millis{Model: fault.FixedDelay{Rounds: 30}}
			sc.Topology = fault.TwoCluster{
				Split: processID(sc.N / 2),
				Local: fault.LinkProfile{Epsilon: -1},
				WAN:   fault.LinkProfile{Epsilon: 0.1},
			}
		}, ""},
		{"ms delay beyond event horizon", func(sc *Scenario) {
			sc.Clock = ClockEvent
			sc.Delay = fault.Millis{Model: fault.FixedDelay{Rounds: netmodel.MaxSpanMs + 1}}
		}, "delay"},
		{"unknown experiment", func(sc *Scenario) { sc.Experiment = Experiment(42) }, "unknown experiment"},
		{"negative reliability rate", func(sc *Scenario) {
			sc.Experiment = ExpReliability
			sc.Rate = -1
		}, "reliability"},
		{"topics", func(sc *Scenario) { sc.Experiment = ExpTopics; sc.Tau = 0 }, ""},
		{"topics on event clock", func(sc *Scenario) {
			sc.Experiment = ExpTopics
			sc.Tau = 0
			sc.Clock = ClockEvent
		}, "ClockRounds"},
		{"topics with crashes", func(sc *Scenario) {
			sc.Experiment = ExpTopics
			sc.Tau = 0.01
		}, "Tau"},
		{"topics non-lpbcast", func(sc *Scenario) {
			sc.Experiment = ExpTopics
			sc.Tau = 0
			sc.Protocol = PbcastPartial
			sc.Pbcast.Fanout = 3
		}, "lpbcast"},
		{"negative rounds", func(sc *Scenario) { sc.Rounds = -1 }, "Rounds"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sc := base()
			tc.mut(&sc)
			err := sc.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: unexpected error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunMatchesDeprecatedWrappers proves the v2 front door is a pure
// re-dispatch: for each experiment family, Run produces bit-identical
// results to the deprecated per-family entry point it absorbs.
func TestRunMatchesDeprecatedWrappers(t *testing.T) {
	t.Parallel()

	t.Run("infection", func(t *testing.T) {
		t.Parallel()
		opts := DefaultOptions(125)
		opts.Seed = 7
		opts.Lpbcast.AssumeFromDigest = true
		old, err := InfectionExperiment(opts, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(Scenario{Options: opts, Rounds: 8, Repeats: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got.Infection == nil || got.Reliability != nil {
			t.Fatalf("infection Run result shape wrong: %+v", got)
		}
		assertIdentical(t, "run vs InfectionExperiment", old, *got.Infection)
	})

	t.Run("reliability", func(t *testing.T) {
		t.Parallel()
		ropts := DefaultReliabilityOptions(125)
		ropts.Cluster.Seed = 11
		ropts.PublishRounds = 8
		ropts.DrainRounds = 8
		old, err := ReliabilityExperiment(ropts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(Scenario{
			Options:       ropts.Cluster,
			Experiment:    ExpReliability,
			Rate:          ropts.Rate,
			PublishRounds: 8,
			DrainRounds:   8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Reliability == nil || got.Infection != nil {
			t.Fatalf("reliability Run result shape wrong: %+v", got)
		}
		assertIdentical(t, "run vs ReliabilityExperiment", old, *got.Reliability)
	})

	t.Run("topics", func(t *testing.T) {
		t.Parallel()
		opts := DefaultOptions(200)
		opts.Seed = 5
		opts.Tau = 0
		opts.Epsilon = 0.05
		topt := TopicOptions{
			Subscribers:  200,
			Topics:       12,
			ZipfS:        1.0,
			Seed:         5,
			Epsilon:      0.05,
			Engine:       opts.Lpbcast,
			WarmupRounds: 0,
		}
		old, err := TopicExperiment(topt, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(Scenario{
			Options:    opts,
			Experiment: ExpTopics,
			Rounds:     8,
			Repeats:    2,
			Topics:     12,
			ZipfS:      1.0,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Infection == nil {
			t.Fatalf("topics Run result shape wrong: %+v", got)
		}
		assertIdentical(t, "run vs TopicExperiment", old, *got.Infection)
	})
}

// TestRunEventClockScenario drives a full v2 call end to end on the event
// clock with a millisecond delay model — the combination no deprecated
// wrapper could spell — and checks the trace disseminates.
func TestRunEventClockScenario(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions(125)
	opts.Seed = 9
	opts.Clock = ClockEvent
	opts.PeriodMs = 200
	opts.Workers = 4
	opts.Lpbcast.AssumeFromDigest = true
	opts.Delay = fault.Millis{Model: fault.UniformDelay{Min: 10, Max: 400}}
	got, err := Run(Scenario{Options: opts, Rounds: 12, Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	last := got.Infection.PerRound[len(got.Infection.PerRound)-1]
	if last < 125*0.9 {
		t.Errorf("event-clock scenario infected only %v of 125", last)
	}
}
