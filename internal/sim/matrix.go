package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/stats"
)

// MatrixSpec describes a grid of infection scenarios to sweep: the cross
// product of system sizes, fanouts, loss probabilities, crash fractions
// and protocols. Cells are independent experiments, so the runner executes
// them concurrently; each cell derives its seed deterministically from
// Seed and the cell's grid position, making the whole sweep reproducible
// regardless of scheduling.
type MatrixSpec struct {
	// Ns are the system sizes to sweep. Required (at least one).
	Ns []int
	// Fanouts are the gossip fanouts F. Default: {3}.
	Fanouts []int
	// Epsilons are the Bernoulli loss probabilities ε. Default: {0.05}.
	Epsilons []float64
	// Taus are the crashed fractions τ (the churn dimension: processes
	// failing mid-run). Default: {0.01}.
	Taus []float64
	// DelaySpecs are delay-model specifications for the network latency
	// dimension, in fault.ParseDelaySpec grammar: "" (zero delay),
	// "fixed:2" / "uniform:1-4" (whole rounds), "ms:fixed:30" /
	// "ms:uniform:10-40" (virtual milliseconds — the cell automatically
	// runs on the event clock). Default: {""}.
	DelaySpecs []string
	// Topics is the pub/sub dimension: cells with Topics > 1 run a
	// TopicExperiment — N subscribers spread over that many topic groups
	// by a Zipf(1) popularity draw on a pubsub.Bus — instead of a flat
	// process cluster. Only the lpbcast protocol supports topic cells
	// (the Bus hosts core engines), and the crash dimension Tau is
	// ignored there: the pubsub substrate models voluntary churn, not
	// crashes. Default: {1} (no pub/sub cells).
	Topics []int
	// Protocols are the broadcast algorithms to compare. Default:
	// {Lpbcast}.
	Protocols []Protocol
	// Rounds is the number of gossip rounds each infection trace runs.
	// Default: 10.
	Rounds int
	// Repeats is the number of repetitions averaged per cell. Default: 3.
	Repeats int
	// Seed is the root seed of the sweep. Default: 1.
	Seed uint64
	// RunConfig is the per-cluster execution configuration (executor
	// workers, clock, period). A millisecond DelaySpecs entry overrides
	// Clock to ClockEvent for its cells. The embed keeps the historical
	// spec.Workers spelling working unchanged.
	RunConfig
	// Concurrency bounds how many cells run at once. Default: GOMAXPROCS.
	Concurrency int
}

// withDefaults fills the optional dimensions.
func (s MatrixSpec) withDefaults() MatrixSpec {
	if len(s.Fanouts) == 0 {
		s.Fanouts = []int{3}
	}
	if len(s.Epsilons) == 0 {
		s.Epsilons = []float64{0.05}
	}
	if len(s.Taus) == 0 {
		s.Taus = []float64{0.01}
	}
	if len(s.Protocols) == 0 {
		s.Protocols = []Protocol{Lpbcast}
	}
	if len(s.DelaySpecs) == 0 {
		s.DelaySpecs = []string{""}
	}
	if len(s.Topics) == 0 {
		s.Topics = []int{1}
	}
	if s.Rounds <= 0 {
		s.Rounds = 10
	}
	if s.Repeats <= 0 {
		s.Repeats = 3
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Concurrency <= 0 {
		s.Concurrency = runtime.GOMAXPROCS(0)
	}
	return s
}

// MatrixCell is one grid point of a sweep plus its outcome.
type MatrixCell struct {
	N        int
	Fanout   int
	Epsilon  float64
	Tau      float64
	Delay    string // delay-model spec (fault.ParseDelaySpec); "" = same-round
	Topics   int    // topic groups; > 1 runs a pub/sub TopicExperiment
	Protocol Protocol
	// Result is the averaged infection trace for this configuration.
	Result InfectionResult
	// Err reports a failed cell (e.g. an invalid configuration such as
	// F > l); successful cells have Err == nil.
	Err error
}

// Name returns a compact label for the cell's configuration, without the
// system size (which tables use as the X axis). The delay dimension only
// appears when it is in play, keeping flat-network sweeps unchanged.
func (c MatrixCell) Name() string {
	name := fmt.Sprintf("%s,F=%d,eps=%g,tau=%g", c.Protocol, c.Fanout, c.Epsilon, c.Tau)
	if c.Delay != "" {
		name += fmt.Sprintf(",d=%s", c.Delay)
	}
	if c.Topics > 1 {
		name += fmt.Sprintf(",topics=%d", c.Topics)
	}
	return name
}

// cellOptions builds the cluster options of one grid point. The seed mixes
// the sweep seed with the cell's index so every cell is independent and
// the whole sweep is reproducible.
func cellOptions(spec MatrixSpec, cell MatrixCell, idx int) (Options, error) {
	o := DefaultOptions(cell.N)
	o.Seed = spec.Seed + uint64(idx)*1_000_003
	o.Epsilon = cell.Epsilon
	o.Tau = cell.Tau
	o.Protocol = cell.Protocol
	o.RunConfig = spec.RunConfig
	d, err := fault.ParseDelaySpec(cell.Delay)
	if err != nil {
		return Options{}, fmt.Errorf("sim: cell %s: %w", cell.Name(), err)
	}
	o.Delay = d
	// A millisecond spec needs sub-round time: the cell runs on the event
	// clock regardless of the sweep-wide default.
	if d != nil && fault.Unit(d) == fault.UnitMillis {
		o.Clock = ClockEvent
	}
	switch cell.Protocol {
	case Lpbcast:
		o.Lpbcast.Fanout = cell.Fanout
		// The §5.2 methodology makes single-event traces comparable to
		// the Markov analysis.
		o.Lpbcast.AssumeFromDigest = true
	case PbcastPartial, PbcastTotal:
		o.Pbcast.Fanout = cell.Fanout
	}
	return o, nil
}

// runTopicCell executes a pub/sub grid point: the cell's N subscribers
// spread over its topic count by a Zipf(1) popularity draw, the traced
// event published on the hottest topic. The §5.2 comparability choice
// (AssumeFromDigest) carries over; Tau does not apply (see
// MatrixSpec.Topics).
func runTopicCell(spec MatrixSpec, cell MatrixCell, idx int) (InfectionResult, error) {
	if cell.Protocol != Lpbcast {
		return InfectionResult{}, fmt.Errorf("sim: topic cells require lpbcast, not %s", cell.Protocol)
	}
	opts := TopicOptions{
		Subscribers:  cell.N,
		Topics:       cell.Topics,
		ZipfS:        1.0,
		Seed:         spec.Seed + uint64(idx)*1_000_003,
		Epsilon:      cell.Epsilon,
		WarmupRounds: 5,
	}
	d, err := fault.ParseDelaySpec(cell.Delay)
	if err != nil {
		return InfectionResult{}, fmt.Errorf("sim: cell %s: %w", cell.Name(), err)
	}
	opts.Delay = d
	opts.Engine = core.DefaultConfig()
	opts.Engine.Fanout = cell.Fanout
	opts.Engine.AssumeFromDigest = true
	return TopicExperiment(opts, spec.Rounds, spec.Repeats)
}

// RunMatrix sweeps the grid, running up to spec.Concurrency cells at a
// time. The returned slice enumerates the cross product in deterministic
// order (protocol-major, then fanout, epsilon, tau, delay, topics, and N
// innermost), independent of how the cells were scheduled.
func RunMatrix(spec MatrixSpec) ([]MatrixCell, error) {
	if len(spec.Ns) == 0 {
		return nil, errors.New("sim: matrix needs at least one system size")
	}
	spec = spec.withDefaults()

	var cells []MatrixCell
	for _, p := range spec.Protocols {
		for _, f := range spec.Fanouts {
			for _, eps := range spec.Epsilons {
				for _, tau := range spec.Taus {
					for _, d := range spec.DelaySpecs {
						for _, topics := range spec.Topics {
							for _, n := range spec.Ns {
								cells = append(cells, MatrixCell{
									N: n, Fanout: f, Epsilon: eps, Tau: tau, Delay: d, Topics: topics, Protocol: p,
								})
							}
						}
					}
				}
			}
		}
	}

	sem := make(chan struct{}, spec.Concurrency)
	var wg sync.WaitGroup
	wg.Add(len(cells))
	for i := range cells {
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cell := &cells[i]
			if cell.Topics > 1 {
				cell.Result, cell.Err = runTopicCell(spec, *cell, i)
				return
			}
			opts, err := cellOptions(spec, *cell, i)
			if err != nil {
				cell.Err = err
				return
			}
			cell.Result, cell.Err = InfectionExperiment(opts, spec.Rounds, spec.Repeats)
		}(i)
	}
	wg.Wait()
	return cells, nil
}

// MatrixTable renders a sweep as a gnuplot-style table: one series per
// configuration, X = system size, Y = rounds until the mean infection
// reached 99% of the system (spec.Rounds+1 when it never did, mirroring
// RoundsToReach's not-found convention).
func MatrixTable(cells []MatrixCell) *stats.Table {
	tbl := &stats.Table{
		Title:   "Scenario matrix — rounds to infect 99%",
		XLabel:  "n",
		YFormat: "%.0f",
	}
	series := map[string]*stats.Series{}
	var order []string
	for _, c := range cells {
		if c.Err != nil {
			continue
		}
		name := c.Name()
		s, ok := series[name]
		if !ok {
			s = &stats.Series{Name: name}
			series[name] = s
			order = append(order, name)
		}
		// Topic cells trace one topic group, not the whole system; their
		// 99% target is the hot topic's population.
		target := float64(c.N)
		if c.Result.Population > 0 {
			target = float64(c.Result.Population)
		}
		rounds, _ := c.Result.RoundsToReach(0.99 * target)
		s.Add(float64(c.N), float64(rounds))
	}
	for _, name := range order {
		tbl.Series = append(tbl.Series, series[name])
	}
	return tbl
}
