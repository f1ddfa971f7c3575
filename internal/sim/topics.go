package sim

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/pubsub"
)

// TopicOptions configures a topic-based pub/sub experiment: a pubsub.Bus
// hosting a Zipf-distributed topic-popularity workload (many topics, few
// hot — the paper's §3.1 application shape). The traced event is
// published on the hottest topic; the experiment measures how gossip
// disseminates it through that topic's group while all other topic
// groups gossip concurrently on the same bus.
//
// Unlike the process-cluster Options there is no crash fraction τ: the
// pubsub substrate models voluntary churn (Cancel + unsubscription
// gossip), not crash failures. Nor is there a RunConfig: the Bus steps
// whole rounds on one goroutine.
type TopicOptions struct {
	// Subscribers is the total number of (client, topic) subscriptions.
	Subscribers int
	// Topics is the number of topic groups.
	Topics int
	// ZipfS is the popularity exponent (see pubsub.Workload.S).
	ZipfS float64
	// Seed makes the whole experiment reproducible.
	Seed uint64
	// Epsilon is the per-message Bernoulli loss probability.
	Epsilon float64
	// Delay, Topology, and Partitions configure the network exactly as on
	// pubsub.Config (see netmodel.Config), on the Bus's round clock.
	Delay      fault.DelayModel
	Topology   fault.Topology
	Partitions []fault.Partition
	// Engine is the per-member lpbcast configuration (zero value: the
	// Bus's retransmitting default).
	Engine core.Config
	// WarmupRounds lets membership gossip mix the topic groups before
	// the traced publication.
	WarmupRounds int
}

// TopicExperiment traces the dissemination of one event on the hottest
// topic of a Zipf workload, averaging per-round delivery counts over
// repeats — the pub/sub analogue of InfectionExperiment. PerRound counts
// distinct subscribers of the hot topic that delivered the traced event;
// PerRound[0] == 1 (the publisher). The result's Population is the hot
// topic's subscriber count, the natural 100% target for round-to-reach
// readings.
func TopicExperiment(opts TopicOptions, rounds, repeats int) (InfectionResult, error) {
	if rounds <= 0 || repeats <= 0 {
		return InfectionResult{}, errors.New("sim: rounds and repeats must be positive")
	}
	if opts.WarmupRounds < 0 {
		return InfectionResult{}, fmt.Errorf("sim: WarmupRounds %d must be non-negative", opts.WarmupRounds)
	}
	// The workload's popularity draws use the experiment seed directly,
	// so every repeat deploys the same population shape and only the
	// protocol's randomness varies — same discipline as the cluster
	// experiments, where repeats share the topology but not the streams.
	w := pubsub.Workload{
		Topics:      opts.Topics,
		Subscribers: opts.Subscribers,
		S:           opts.ZipfS,
		Seed:        opts.Seed,
	}
	if err := w.Validate(); err != nil {
		return InfectionResult{}, err
	}
	sum := make([]float64, rounds+1)
	population := 0
	for rep := 0; rep < repeats; rep++ {
		bus, err := pubsub.NewBus(pubsub.Config{
			Seed:       opts.Seed + uint64(rep)*1_000_003,
			Epsilon:    opts.Epsilon,
			Delay:      opts.Delay,
			Topology:   opts.Topology,
			Partitions: opts.Partitions,
			Engine:     opts.Engine,
		})
		if err != nil {
			return InfectionResult{}, err
		}
		// Each hot-topic subscriber counts its first delivery. The hot
		// topic carries exactly one event — the traced publication — so a
		// first delivery is a delivery of the traced event.
		count := 0
		pop, err := w.Deploy(bus, func(rank int) pubsub.Handler {
			if rank != 0 {
				return nil
			}
			seen := false
			return func(string, proto.Event) {
				if !seen {
					seen = true
					count++
				}
			}
		})
		if err != nil {
			return InfectionResult{}, err
		}
		population = pop.Size(0)
		bus.StepN(opts.WarmupRounds)
		if _, err := pop.PublishAt(0, nil); err != nil {
			return InfectionResult{}, err
		}
		sum[0] += float64(count)
		for r := 1; r <= rounds; r++ {
			bus.Step()
			sum[r] += float64(count)
		}
		if err := bus.TotalNetStats().Conserved(); err != nil {
			return InfectionResult{}, fmt.Errorf("sim: topic experiment rep %d: %w", rep, err)
		}
	}
	for i := range sum {
		sum[i] /= float64(repeats)
	}
	return InfectionResult{PerRound: sum, Runs: repeats, Population: population}, nil
}
