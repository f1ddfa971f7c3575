package sim

import "fmt"

// This file is the sim v2 front door: one validated Scenario describing
// *what* to measure (the experiment family and its knobs) on top of the
// cluster Options describing *the system*, and one Run entry point
// dispatching it. Every combination — synchronous rounds or
// unsynchronized periods (Options.Async), one shard or many
// (RunConfig.Workers), round or event clock (RunConfig.Clock) — is reached
// from the same call; the per-family functions remain as thin deprecated
// wrappers so existing callers keep compiling.

// Experiment selects a Scenario's measurement family.
type Experiment int

const (
	// ExpInfection traces one event's propagation through the cluster —
	// the paper's "run" (§4.1, Figs. 5 and 7(a)).
	ExpInfection Experiment = iota
	// ExpReliability measures delivery reliability 1-β under a continuous
	// publication load with bounded buffers (§5.2, Figs. 6 and 7(b)).
	ExpReliability
	// ExpTopics traces one event through the hottest group of a
	// Zipf-distributed topic workload on a pubsub.Bus (§3.1's application
	// shape). Round clock only: the Bus steps whole rounds.
	ExpTopics
)

// String implements fmt.Stringer.
func (e Experiment) String() string {
	switch e {
	case ExpInfection:
		return "infection"
	case ExpReliability:
		return "reliability"
	case ExpTopics:
		return "topics"
	default:
		return fmt.Sprintf("experiment(%d)", int(e))
	}
}

// Scenario is one fully specified simulation experiment. The embedded
// Options describe the simulated system (size, protocol, failure model,
// clock, executor); the remaining fields parameterize the measurement.
// Zero values select the documented defaults, so the minimal scenario is
// Scenario{Options: DefaultOptions(n)}.
type Scenario struct {
	Options
	// Experiment selects the measurement family (default ExpInfection).
	Experiment Experiment
	// Rounds is the number of measured rounds for ExpInfection and
	// ExpTopics (default 10).
	Rounds int
	// Repeats averages the measurement over fresh clusters for
	// ExpInfection and ExpTopics (default 3). ExpReliability runs once; its
	// callers average externally (reliabilityForViewSize).
	Repeats int
	// Rate is ExpReliability's publications per round (default 40).
	Rate int
	// PublishRounds and DrainRounds bound ExpReliability's load and drain
	// phases (defaults 20 and 12).
	PublishRounds int
	DrainRounds   int
	// Topics is ExpTopics' topic-group count (default 16); the embedded
	// Options.N is the total subscriber count.
	Topics int
	// ZipfS is ExpTopics' popularity exponent (default 1).
	ZipfS float64
}

// withDefaults resolves the zero values.
func (sc Scenario) withDefaults() Scenario {
	if sc.Rounds == 0 {
		sc.Rounds = 10
	}
	if sc.Repeats == 0 {
		sc.Repeats = 3
	}
	if sc.Rate == 0 {
		sc.Rate = 40
	}
	if sc.PublishRounds == 0 {
		sc.PublishRounds = 20
	}
	if sc.DrainRounds == 0 {
		sc.DrainRounds = 12
	}
	if sc.Topics == 0 {
		sc.Topics = 16
	}
	if sc.ZipfS == 0 {
		sc.ZipfS = 1
	}
	return sc
}

// Validate reports scenario errors, options errors included. Run validates
// internally; direct calls are for surfacing errors early (flag parsing).
func (sc Scenario) Validate() error {
	sc = sc.withDefaults()
	if err := sc.Options.Validate(); err != nil {
		return err
	}
	switch sc.Experiment {
	case ExpInfection:
	case ExpReliability:
		if sc.Rate < 0 || sc.PublishRounds < 0 || sc.DrainRounds < 0 {
			return fmt.Errorf("sim: negative reliability load parameters")
		}
	case ExpTopics:
		if sc.Protocol != Lpbcast {
			return fmt.Errorf("sim: topic experiments run lpbcast engines; got %v", sc.Protocol)
		}
		if sc.Tau != 0 {
			return fmt.Errorf("sim: topic experiments model voluntary churn, not crashes; Tau must be 0")
		}
		if sc.Clock != ClockRounds {
			return fmt.Errorf("sim: topic experiments step the pubsub Bus in whole rounds; Clock must be ClockRounds")
		}
	default:
		return fmt.Errorf("sim: unknown experiment %d", int(sc.Experiment))
	}
	if sc.Rounds < 1 || sc.Repeats < 1 {
		return fmt.Errorf("sim: Rounds and Repeats must be positive")
	}
	return nil
}

// Result is Run's outcome; exactly the field matching the scenario's
// experiment family is set.
type Result struct {
	// Infection is set for ExpInfection and ExpTopics.
	Infection *InfectionResult
	// Reliability is set for ExpReliability.
	Reliability *ReliabilityResult
}

// Run executes one scenario and returns its measurement. It is the single
// entry point over every execution mode: Options.Async picks synchronous
// rounds or unsynchronized periods, RunConfig.Workers the shard count,
// RunConfig.Clock the round or event time base — all combinations produce
// results that are bit-for-bit independent of Workers.
func Run(sc Scenario) (Result, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	switch sc.Experiment {
	case ExpInfection:
		res, err := InfectionExperiment(sc.Options, sc.Rounds, sc.Repeats)
		if err != nil {
			return Result{}, err
		}
		return Result{Infection: &res}, nil
	case ExpReliability:
		res, err := ReliabilityExperiment(ReliabilityOptions{
			Cluster:       sc.Options,
			Rate:          sc.Rate,
			PublishRounds: sc.PublishRounds,
			DrainRounds:   sc.DrainRounds,
		})
		if err != nil {
			return Result{}, err
		}
		return Result{Reliability: &res}, nil
	case ExpTopics:
		res, err := TopicExperiment(TopicOptions{
			Subscribers:  sc.N,
			Topics:       sc.Topics,
			ZipfS:        sc.ZipfS,
			Seed:         sc.Seed,
			Epsilon:      sc.Epsilon,
			Delay:        sc.Delay,
			Topology:     sc.Topology,
			Partitions:   sc.Partitions,
			Engine:       sc.Lpbcast,
			WarmupRounds: sc.WarmupRounds,
			RunConfig:    sc.RunConfig,
		}, sc.Rounds, sc.Repeats)
		if err != nil {
			return Result{}, err
		}
		return Result{Infection: &res}, nil
	default:
		return Result{}, fmt.Errorf("sim: unknown experiment %d", int(sc.Experiment))
	}
}
