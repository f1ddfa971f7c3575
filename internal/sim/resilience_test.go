package sim

import "testing"

func TestResilienceValidation(t *testing.T) {
	t.Parallel()
	o := DefaultOptions(30)
	if _, err := ResilienceExperiment(o, -0.1, 2, 5, 5); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := ResilienceExperiment(o, 1.0, 2, 5, 5); err == nil {
		t.Error("fraction 1 accepted")
	}
	if _, err := ResilienceExperiment(o, 0.2, 2, 0, 5); err == nil {
		t.Error("zero events accepted")
	}
	if _, err := ResilienceExperiment(o, 0.2, 2, 5, 0); err == nil {
		t.Error("zero rounds accepted")
	}
}

func TestResilienceSurvivesMassCrash(t *testing.T) {
	t.Parallel()
	o := DefaultOptions(125)
	o.Seed = 31
	o.Lpbcast.AssumeFromDigest = true
	res, err := ResilienceExperiment(o, 0.3, 2, 20, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Survivors != 125-37 {
		t.Fatalf("survivors = %d", res.Survivors)
	}
	if res.Events != 20 {
		t.Fatalf("events = %d", res.Events)
	}
	// 30% of the system dying mid-broadcast barely dents reliability.
	if res.SurvivorReliability < 0.95 {
		t.Errorf("survivor reliability = %v after 30%% crash, want ≥ 0.95", res.SurvivorReliability)
	}
	if res.Partitioned {
		t.Error("survivor views partitioned")
	}
}

func TestResilienceDegradesGracefully(t *testing.T) {
	t.Parallel()
	get := func(frac float64) float64 {
		o := DefaultOptions(80)
		o.Seed = 37
		o.Lpbcast.AssumeFromDigest = true
		res, err := ResilienceExperiment(o, frac, 2, 15, 12)
		if err != nil {
			t.Fatal(err)
		}
		return res.SurvivorReliability
	}
	mild, severe := get(0.1), get(0.6)
	if mild < 0.9 {
		t.Errorf("reliability at 10%% crash = %v", mild)
	}
	// Even at 60% simultaneous failure the survivors keep most deliveries.
	if severe < 0.5 {
		t.Errorf("reliability at 60%% crash = %v, want graceful degradation", severe)
	}
}

func TestResilienceSweepTable(t *testing.T) {
	t.Parallel()
	tbl, err := ResilienceSweep([]float64{0.1, 0.3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series[0].X) != 2 || tbl.Render() == "" {
		t.Fatalf("bad table: %+v", tbl)
	}
}

func TestFirstPhaseMulticastSpeedsPbcast(t *testing.T) {
	t.Parallel()
	// True Bimodal Multicast: with the first phase on, most processes are
	// infected at round 0 and gossip only repairs the gaps.
	base := DefaultOptions(125)
	base.Seed = 41
	base.Protocol = PbcastPartial
	base.Pbcast.Fanout = 5
	without, err := InfectionExperiment(base, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	withPhase := base
	withPhase.FirstPhaseDelivery = 0.9
	with, err := InfectionExperiment(withPhase, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if with.PerRound[0] < 100 {
		t.Errorf("first phase infected only %v at round 0", with.PerRound[0])
	}
	if without.PerRound[0] != 1 {
		t.Errorf("without first phase, round 0 = %v, want 1", without.PerRound[0])
	}
	if with.PerRound[4] <= without.PerRound[4] {
		t.Errorf("first phase did not help: %v vs %v", with.PerRound[4], without.PerRound[4])
	}
	// Gossip repairs toward full delivery.
	if with.PerRound[4] < 120 {
		t.Errorf("bimodal repair incomplete: %v", with.PerRound[4])
	}
}
