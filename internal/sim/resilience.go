package sim

import (
	"errors"
	"fmt"

	"repro/internal/proto"
	"repro/internal/stats"
)

// ResilienceResult is the outcome of a catastrophic-failure experiment.
type ResilienceResult struct {
	// SurvivorReliability is the fraction of (event, survivor) pairs
	// delivered among survivors.
	SurvivorReliability float64
	// Survivors is the number of processes alive at the end.
	Survivors int
	// Events is the number of traced events.
	Events int
	// Partitioned reports whether the survivors' views partitioned.
	Partitioned bool
}

// ResilienceExperiment stresses the protocol beyond the paper's τ=0.01
// model: crashFraction of the system fails simultaneously at crashRound,
// mid-dissemination. Gossip's redundancy should keep survivor reliability
// near 1 for crash fractions well past any deterministic tree protocol's
// tolerance — the "fault-tolerance because a process receives copies of a
// message from several processes" claim of §7.
func ResilienceExperiment(opts Options, crashFraction float64, crashRound uint64, events, rounds int) (ResilienceResult, error) {
	if crashFraction < 0 || crashFraction >= 1 {
		return ResilienceResult{}, fmt.Errorf("sim: crash fraction %v out of [0,1)", crashFraction)
	}
	if events <= 0 || rounds <= 0 {
		return ResilienceResult{}, errors.New("sim: events and rounds must be positive")
	}
	opts.Tau = 0 // the schedule below replaces the model's τ
	opts.Horizon = uint64(rounds)
	cluster, err := NewCluster(opts)
	if err != nil {
		return ResilienceResult{}, err
	}
	defer cluster.Close()
	// Schedule the mass failure.
	f := int(crashFraction * float64(cluster.N()))
	crashRNG := cluster.tickRNG.Split()
	var crashed []proto.ProcessID
	for _, j := range crashRNG.Sample(cluster.N(), f) {
		pid := proto.ProcessID(j + 1)
		cluster.crashes.CrashAt(pid, crashRound)
		crashed = append(crashed, pid)
	}
	isCrashed := map[proto.ProcessID]bool{}
	for _, p := range crashed {
		isCrashed[p] = true
	}

	// Publish from surviving processes before the crash.
	var ids []proto.EventID
	pubRNG := cluster.tickRNG.Split()
	for k := 0; k < events; k++ {
		i := pubRNG.Intn(cluster.N())
		for isCrashed[proto.ProcessID(i+1)] {
			i = pubRNG.Intn(cluster.N())
		}
		ev, err := cluster.PublishAt(i)
		if err != nil {
			return ResilienceResult{}, err
		}
		ids = append(ids, ev.ID)
	}
	for r := 0; r < rounds; r++ {
		cluster.RunRound()
	}

	res := ResilienceResult{
		Survivors: cluster.N() - f,
		Events:    len(ids),
	}
	delivered, total := 0, 0
	for _, id := range ids {
		for p := 1; p <= cluster.N(); p++ {
			pid := proto.ProcessID(p)
			if isCrashed[pid] {
				continue
			}
			total++
			if cluster.HasDelivered(pid, id) {
				delivered++
			}
		}
	}
	if total > 0 {
		res.SurvivorReliability = float64(delivered) / float64(total)
	}
	res.Partitioned = cluster.Graph().Partitioned()
	return res, nil
}

// ResilienceSweep tabulates survivor reliability against the crash
// fraction — an extension experiment beyond the paper's figures
// demonstrating graceful degradation.
func ResilienceSweep(fractions []float64, seed uint64) (*stats.Table, error) {
	s := &stats.Series{Name: "survivor reliability"}
	for _, frac := range fractions {
		o := DefaultOptions(125)
		o.Seed = seed + uint64(frac*1000)
		o.Lpbcast.AssumeFromDigest = true
		res, err := ResilienceExperiment(o, frac, 2, 40, 12)
		if err != nil {
			return nil, err
		}
		s.Add(frac, res.SurvivorReliability)
	}
	return &stats.Table{
		Title:   "Extension — survivor reliability vs simultaneous crash fraction (n=125, crash at round 2)",
		XLabel:  "crash fraction",
		YFormat: "%.4f",
		Series:  []*stats.Series{s},
	}, nil
}
