package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestChurnValidation(t *testing.T) {
	t.Parallel()
	o := DefaultChurnOptions(1)
	if _, err := ChurnExperiment(o); err == nil {
		t.Error("tiny population accepted")
	}
	o = DefaultChurnOptions(20)
	o.Rounds = 0
	if _, err := ChurnExperiment(o); err == nil {
		t.Error("zero rounds accepted")
	}
	o = DefaultChurnOptions(20)
	o.Engine.Fanout = 0
	if _, err := ChurnExperiment(o); err == nil {
		t.Error("bad engine config accepted")
	}
}

func TestChurnKeepsMembershipHealthy(t *testing.T) {
	t.Parallel()
	o := DefaultChurnOptions(60)
	o.Seed = 17
	o.Rounds = 50
	res, err := ChurnExperiment(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Joined < 40 || res.Left < 30 {
		t.Fatalf("churn did not happen: %+v", res)
	}
	// Transient 2-component snapshots (a join still propagating) are fine;
	// the membership must be connected once churn stops.
	if res.MaxComponents > 2 {
		t.Errorf("membership badly partitioned during churn: max %d components", res.MaxComponents)
	}
	if res.FinalComponents != 1 {
		t.Errorf("membership not reconnected after churn: %d components", res.FinalComponents)
	}
	// Population stays near 60 (joins ≈ leaves).
	if res.FinalN < 40 || res.FinalN > 80 {
		t.Errorf("final population %d drifted too far from 60", res.FinalN)
	}
	// Views stay useful: mean in-degree near l.
	if res.FinalInDegreeMean < 5 {
		t.Errorf("final in-degree mean %v too low", res.FinalInDegreeMean)
	}
	if res.StaleReferences != 0 {
		t.Errorf("%d stale view references to long-departed processes", res.StaleReferences)
	}
	if s := res.String(); !strings.Contains(s, "churn(") {
		t.Errorf("String = %q", s)
	}
}

func TestChurnHeavyLeaveRate(t *testing.T) {
	t.Parallel()
	// Shrinking system: more leaves than joins. Must stay connected as it
	// shrinks.
	o := DefaultChurnOptions(80)
	o.Seed = 23
	o.Rounds = 30
	o.JoinsPerRound = 0
	o.LeavesPerRound = 2
	res, err := ChurnExperiment(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalN >= 80 {
		t.Fatalf("system did not shrink: %+v", res)
	}
	if res.FinalComponents != 1 {
		t.Errorf("shrinking system partitioned: %+v", res)
	}
}

func TestChurnGrowthOnly(t *testing.T) {
	t.Parallel()
	o := DefaultChurnOptions(20)
	o.Seed = 29
	o.Rounds = 30
	o.JoinsPerRound = 2
	o.LeavesPerRound = 0
	res, err := ChurnExperiment(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalN != 20+60 {
		t.Fatalf("final population %d, want 80", res.FinalN)
	}
	if res.FinalComponents != 1 {
		t.Errorf("growing system partitioned: %+v", res)
	}
}

// TestChurnPinned pins one churn run's summary across versions: the loss
// filter of the churn loop and its draw order are part of what it prints.
func TestChurnPinned(t *testing.T) {
	t.Parallel()
	res, err := ChurnExperiment(DefaultChurnOptions(60))
	if err != nil {
		t.Fatal(err)
	}
	const want = "churn(final=63 joined=40 left=37 maxComponents=1 finalComponents=1 indegree=15.0±4.6 stale=0)"
	if got := res.String(); got != want {
		t.Fatalf("ChurnExperiment(DefaultChurnOptions(60)) = %s, want %s", got, want)
	}
	// The summary rounds the in-degree; the full figures move with any draw.
	const wantFull = "indegree 14.952380952380953±4.640842053548729"
	if got := fmt.Sprintf("indegree %v±%v", res.FinalInDegreeMean, res.FinalInDegreeStddev); got != wantFull {
		t.Fatalf("ChurnExperiment(DefaultChurnOptions(60)): %s, want %s", got, wantFull)
	}
}

func TestChurnDeterministic(t *testing.T) {
	t.Parallel()
	o := DefaultChurnOptions(30)
	o.Seed = 31
	o.Rounds = 20
	a, err := ChurnExperiment(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChurnExperiment(o)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}
