package sim

import (
	"errors"

	"repro/internal/proto"
	"repro/internal/rng"
)

// ReliabilityOptions parameterizes a reliability (1-β) measurement — the
// setup of the paper's §5.2: every round, Rate events are published by
// randomly chosen processes, buffers are bounded, and after the publication
// phase the system drains.
type ReliabilityOptions struct {
	Cluster Options
	// Rate is the number of events published per gossip round, system-wide
	// (the figures' "Rate = 40 msg/round").
	Rate int
	// PublishRounds is the number of rounds during which events are
	// published.
	PublishRounds int
	// DrainRounds is the number of extra rounds allowed for dissemination
	// to complete after publication stops.
	DrainRounds int
}

// DefaultReliabilityOptions mirrors the paper's measurement setup at
// n=125: rate 40, enough rounds for steady state. The lpbcast engines run
// in AssumeFromDigest mode, matching §5.2's "once a gossip receiver has
// received the identifier of a notification, the notification itself is
// assumed to have been received".
func DefaultReliabilityOptions(n int) ReliabilityOptions {
	cl := DefaultOptions(n)
	cl.Lpbcast.AssumeFromDigest = true
	// The paper's reliability numbers come from the real, unsynchronized
	// deployment; Async reproduces that regime.
	cl.Async = true
	return ReliabilityOptions{
		Cluster:       cl,
		Rate:          40,
		PublishRounds: 20,
		DrainRounds:   12,
	}
}

// ReliabilityResult is the outcome of a reliability measurement.
type ReliabilityResult struct {
	// Reliability is 1-β: the fraction of (event, process) pairs
	// delivered, i.e. the empirical probability that any given process
	// delivers any given notification.
	Reliability float64
	// Events is the number of events published.
	Events int
	// MinPerEvent / MeanPerEvent summarize per-event delivery counts.
	MinPerEvent  int
	MeanPerEvent float64
	// Partitioned reports whether the final view graph was partitioned.
	Partitioned bool
	// Net carries the network counters of the run.
	Net NetStats
}

// ReliabilityExperiment publishes Rate events per round for PublishRounds
// rounds at uniformly chosen processes, drains, and measures reliability.
func ReliabilityExperiment(opts ReliabilityOptions) (ReliabilityResult, error) {
	if opts.Rate <= 0 || opts.PublishRounds <= 0 || opts.DrainRounds < 0 {
		return ReliabilityResult{}, errors.New("sim: invalid reliability options")
	}
	totalRounds := opts.PublishRounds + opts.DrainRounds
	cl := opts.Cluster
	if cl.Horizon == 0 {
		cl.Horizon = uint64(totalRounds)
	}
	cluster, err := NewCluster(cl)
	if err != nil {
		return ReliabilityResult{}, err
	}
	defer cluster.Close()
	pubRNG := rng.New(cl.Seed ^ 0x9e3779b97f4a7c15)

	var published []proto.EventID
	for r := 0; r < opts.PublishRounds; r++ {
		for k := 0; k < opts.Rate; k++ {
			i := pubRNG.Intn(cluster.N())
			if cluster.Crashed(proto.ProcessID(i + 1)) {
				continue // a crashed process publishes nothing
			}
			ev, err := cluster.PublishAt(i)
			if err != nil {
				return ReliabilityResult{}, err
			}
			published = append(published, ev.ID)
		}
		cluster.RunRound()
	}
	for r := 0; r < opts.DrainRounds; r++ {
		cluster.RunRound()
	}

	res := ReliabilityResult{
		Events: len(published),
		Net:    cluster.NetStats(),
	}
	if len(published) == 0 {
		return res, errors.New("sim: no events were published")
	}
	n := cluster.N()
	total := 0
	res.MinPerEvent = n
	for _, id := range published {
		c := cluster.DeliveredCount(id)
		total += c
		if c < res.MinPerEvent {
			res.MinPerEvent = c
		}
	}
	res.MeanPerEvent = float64(total) / float64(len(published))
	res.Reliability = float64(total) / float64(len(published)*n)
	res.Partitioned = cluster.Graph().Partitioned()
	return res, nil
}
