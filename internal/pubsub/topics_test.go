package pubsub

import (
	"testing"

	"repro/internal/fault"
)

func TestTopicExperimentInfectsHotTopic(t *testing.T) {
	t.Parallel()
	opts := TopicOptions{
		Subscribers:  120,
		Topics:       8,
		ZipfS:        1.0,
		Seed:         3,
		Epsilon:      0.02,
		WarmupRounds: 5,
	}
	res, err := TopicExperiment(opts, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Population <= 0 || res.Population > opts.Subscribers {
		t.Fatalf("Population = %d outside (0,%d]", res.Population, opts.Subscribers)
	}
	if res.PerRound[0] != 1 {
		t.Errorf("PerRound[0] = %v, want 1 (the publisher)", res.PerRound[0])
	}
	final := res.PerRound[len(res.PerRound)-1]
	if final < 0.99*float64(res.Population) {
		t.Errorf("hot topic infected %.1f of %d subscribers after 12 rounds", final, res.Population)
	}
	// The trace never leaves the hot topic's group.
	if final > float64(res.Population) {
		t.Errorf("infection %v exceeds the topic population %d", final, res.Population)
	}
}

func TestTopicExperimentDeterministic(t *testing.T) {
	t.Parallel()
	opts := TopicOptions{
		Subscribers:  80,
		Topics:       6,
		ZipfS:        1.0,
		Seed:         11,
		Epsilon:      0.05,
		Delay:        fault.FixedDelay{Rounds: 1},
		WarmupRounds: 4,
	}
	a, err := TopicExperiment(opts, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TopicExperiment(opts, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Population != b.Population {
		t.Fatalf("populations diverge: %d vs %d", a.Population, b.Population)
	}
	for i := range a.PerRound {
		if a.PerRound[i] != b.PerRound[i] {
			t.Fatalf("traces diverge at round %d: %v vs %v", i, a.PerRound, b.PerRound)
		}
	}
}
