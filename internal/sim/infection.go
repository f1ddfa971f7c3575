package sim

import "errors"

// InfectionResult is the outcome of tracing one event's propagation.
type InfectionResult struct {
	// PerRound[r] is the (mean) number of processes that have delivered
	// the traced event by the end of round r; PerRound[0] == 1 (the
	// publisher).
	PerRound []float64
	// Runs is the number of repetitions averaged.
	Runs int
	// Population is the size of the traced group when it differs from
	// the whole system — a TopicExperiment's hot-topic subscriber count.
	// 0 means the trace spans the full cluster (MatrixTable then targets
	// the cell's N).
	Population int
}

// RoundsToReach returns the first round at which the mean infection count
// reached target, or (len(PerRound), false) if it never did.
func (r InfectionResult) RoundsToReach(target float64) (int, bool) {
	for round, v := range r.PerRound {
		if v >= target {
			return round, true
		}
	}
	return len(r.PerRound), false
}

// MeanDeliveryRound returns the mean round at which the processes counted
// in the final infection tally delivered the traced event — the run's
// mean delivery latency in rounds. Under the zero-delay §5.1 model this
// is a hop count; with a delay model or topology in force it measures
// real network latency: time spent in flight counts.
func (r InfectionResult) MeanDeliveryRound() float64 {
	if len(r.PerRound) == 0 {
		return 0
	}
	total := r.PerRound[len(r.PerRound)-1]
	if total <= 0 {
		return 0
	}
	sum, prev := 0.0, 0.0
	for round, v := range r.PerRound {
		sum += float64(round) * (v - prev)
		prev = v
	}
	return sum / total
}

// InfectionExperiment traces the dissemination of a single event — the
// paper's "run" (§4.1) — and averages the per-round infection counts over
// repeats. Each repeat uses a fresh cluster derived from opts.Seed.
//
// The publisher is process 1. For lpbcast the event propagates by push;
// for the pbcast protocols by digest gossip + pull.
func InfectionExperiment(opts Options, rounds, repeats int) (InfectionResult, error) {
	if rounds <= 0 || repeats <= 0 {
		return InfectionResult{}, errors.New("sim: rounds and repeats must be positive")
	}
	if opts.Horizon == 0 {
		opts.Horizon = uint64(rounds)
	}
	sum := make([]float64, rounds+1)
	for rep := 0; rep < repeats; rep++ {
		o := opts
		o.Seed = opts.Seed + uint64(rep)*1_000_003
		cluster, err := NewCluster(o)
		if err != nil {
			return InfectionResult{}, err
		}
		traced, err := cluster.PublishAt(0)
		if err != nil {
			cluster.Close()
			return InfectionResult{}, err
		}
		sum[0] += float64(cluster.DeliveredCount(traced.ID))
		for r := 1; r <= rounds; r++ {
			cluster.RunRound()
			sum[r] += float64(cluster.DeliveredCount(traced.ID))
		}
		cluster.Close()
	}
	for i := range sum {
		sum[i] /= float64(repeats)
	}
	return InfectionResult{PerRound: sum, Runs: repeats}, nil
}
