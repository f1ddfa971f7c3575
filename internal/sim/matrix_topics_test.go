package sim_test

import (
	"testing"

	"repro/internal/pubsub"
	"repro/internal/sim"
)

// The pub/sub cells of a sweep, run through pubsub.TopicCell and its
// pubsub.TopicExperiment: an external test package, since pubsub imports
// sim.

func TestTopicExperimentValidation(t *testing.T) {
	t.Parallel()
	good := pubsub.TopicOptions{Subscribers: 40, Topics: 4, ZipfS: 1, Seed: 1}
	if _, err := pubsub.TopicExperiment(good, 3, 1); err != nil {
		t.Errorf("valid options refused: %v", err)
	}
	if _, err := pubsub.TopicExperiment(good, 0, 1); err == nil {
		t.Error("rounds=0 accepted")
	}
	if _, err := pubsub.TopicExperiment(good, 5, 0); err == nil {
		t.Error("repeats=0 accepted")
	}
	bad := good
	bad.Topics = 0
	if _, err := pubsub.TopicExperiment(bad, 5, 1); err == nil {
		t.Error("topics=0 accepted")
	}
	bad = good
	bad.WarmupRounds = -1
	if _, err := pubsub.TopicExperiment(bad, 5, 1); err == nil {
		t.Error("negative warmup accepted")
	}
}

func TestRunMatrixTopicCells(t *testing.T) {
	t.Parallel()
	spec := sim.MatrixSpec{
		Ns:       []int{60},
		Fanouts:  []int{3},
		Epsilons: []float64{0.01},
		Topics:   []int{1, 6},
		Rounds:   10,
		Repeats:  1,
		Seed:     2,
	}
	cells, err := sim.RunMatrix(spec, pubsub.TopicCell)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if c.Err != nil {
			t.Fatalf("cell %s: %v", c.Name(), c.Err)
		}
	}
	flat, topic := cells[0], cells[1]
	if flat.Topics != 1 || topic.Topics != 6 {
		t.Fatalf("unexpected cell order: %+v", cells)
	}
	if topic.Result.Population <= 0 {
		t.Errorf("topic cell reported no population")
	}
	if flat.Result.Population != 0 {
		t.Errorf("flat cell reported population %d, want 0", flat.Result.Population)
	}
	if name := topic.Name(); name != "lpbcast,F=3,eps=0.01,tau=0.01,topics=6" {
		t.Errorf("topic cell name = %q", name)
	}
	// The table renders both series without conflating targets.
	tbl := sim.MatrixTable(cells)
	if len(tbl.Series) != 2 {
		t.Errorf("table has %d series, want 2", len(tbl.Series))
	}
}

func TestRunMatrixTopicCellsRejectNonLpbcast(t *testing.T) {
	t.Parallel()
	spec := sim.MatrixSpec{
		Ns:        []int{40},
		Topics:    []int{4},
		Protocols: []sim.Protocol{sim.PbcastTotal},
		Rounds:    5,
		Repeats:   1,
	}
	cells, err := sim.RunMatrix(spec, pubsub.TopicCell)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Err == nil {
		t.Fatalf("pbcast topic cell did not error: %+v", cells)
	}
}
