package sim

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/stats"
)

// ChurnOptions parameterizes a membership-churn experiment (§3.4 at
// scale): processes join through random contacts and leave gracefully
// while the membership layer keeps every view bounded and the overlay
// connected.
type ChurnOptions struct {
	// InitialN is the starting system size.
	InitialN int
	// Rounds is the churn phase length. After it, StabilizeRounds run with
	// no churn before the final health measurement, so in-flight joins and
	// leaves settle.
	Rounds int
	// StabilizeRounds is the quiet tail (default 5 via DefaultChurnOptions).
	StabilizeRounds int
	// JoinsPerRound processes subscribe each round (via a §3.4 join
	// through a uniformly chosen alive member).
	JoinsPerRound int
	// LeavesPerRound processes unsubscribe each round (gracefully: they
	// keep gossiping their unsubscription for GraceRounds, then silence).
	LeavesPerRound int
	// GraceRounds is how long a leaver keeps gossiping.
	GraceRounds int
	// Seed drives all randomness.
	Seed uint64
	// Engine configures the lpbcast engines.
	Engine core.Config
	// Epsilon is the per-message loss probability ε (see netmodel.Config).
	Epsilon float64
}

// DefaultChurnOptions mirrors the paper's environment with view size l=15.
func DefaultChurnOptions(n int) ChurnOptions {
	cfg := core.DefaultConfig()
	// Round-based time. The TTL embodies the paper's §3.4 trade-off: too
	// short and stale subscriptions resurrect departed members once the
	// unsubscription expires; too long (with small unSubs buffers) and the
	// refusal rule blocks departures. Size the TTL to the churn horizon
	// and the buffers to the circulating unsubscription volume.
	cfg.Membership.UnsubTTL = 60
	cfg.Membership.MaxUnsubs = 40
	cfg.Membership.UnsubRefusalLen = 35
	return ChurnOptions{
		InitialN:        n,
		Rounds:          40,
		StabilizeRounds: 5,
		JoinsPerRound:   1,
		LeavesPerRound:  1,
		GraceRounds:     4,
		Seed:            1,
		Engine:          cfg,
		Epsilon:         0.05,
	}
}

// ChurnResult summarizes a churn run.
type ChurnResult struct {
	// FinalN is the number of active members at the end.
	FinalN int
	// Joined and Left count completed membership changes.
	Joined, Left int
	// MaxComponents is the worst connectivity observed across all
	// measured rounds. Transient values of 2 occur while a join or leave
	// is still propagating; lasting partitions show in FinalComponents.
	MaxComponents int
	// FinalComponents is the connectivity after the stabilization tail
	// (1 = fully connected).
	FinalComponents int
	// FinalInDegreeMean/Stddev describe the final view uniformity.
	FinalInDegreeMean, FinalInDegreeStddev float64
	// StaleReferences counts, at the end, view entries pointing at
	// processes that left more than GraceRounds+TTL ago (should be 0).
	StaleReferences int
}

// churnMember is one process in the churn simulation.
type churnMember struct {
	engine   *core.Engine
	leftAt   uint64 // 0 = active; otherwise the round it unsubscribed
	silenced bool   // stopped gossiping entirely
}

// ChurnExperiment runs a dynamic system: joins and graceful leaves at a
// steady rate under message loss, verifying the membership stays
// connected, bounded and garbage-free. Gossip runs through the network
// model (internal/netmodel) with the silenced leavers as its crashed
// destinations.
func ChurnExperiment(opts ChurnOptions) (ChurnResult, error) {
	if opts.InitialN < 2 || opts.Rounds <= 0 {
		return ChurnResult{}, errors.New("sim: invalid churn options")
	}
	if err := opts.Engine.Validate(); err != nil {
		return ChurnResult{}, err
	}
	cfg := netmodel.Config{Epsilon: opts.Epsilon}
	if err := cfg.Validate(netmodel.Clock{}); err != nil {
		return ChurnResult{}, fmt.Errorf("sim: %w", err)
	}
	root := rng.New(opts.Seed)
	network := netmodel.New(cfg, netmodel.Clock{}, root.Split(), nil)
	var ledger stats.NetStats
	pick := root.Split()

	members := map[proto.ProcessID]*churnMember{}
	var order []proto.ProcessID // deterministic iteration order
	nextPID := proto.ProcessID(1)
	newEngine := func() (*core.Engine, error) {
		e, err := core.New(nextPID, opts.Engine, nil, root.Split())
		if err != nil {
			return nil, err
		}
		members[nextPID] = &churnMember{engine: e}
		order = append(order, nextPID)
		nextPID++
		return e, nil
	}

	// Bootstrap population with uniform views.
	var initial []proto.ProcessID
	for i := 0; i < opts.InitialN; i++ {
		initial = append(initial, nextPID)
		if _, err := newEngine(); err != nil {
			return ChurnResult{}, err
		}
	}
	l := opts.Engine.Membership.MaxView
	for _, pid := range initial {
		var seeds []proto.ProcessID
		for _, j := range pick.Sample(len(initial)-1, l) {
			if initial[j] >= pid {
				j++
			}
			seeds = append(seeds, initial[j])
		}
		members[pid].engine.Seed(seeds)
	}

	res := ChurnResult{MaxComponents: 1}
	activePIDs := func() []proto.ProcessID {
		out := make([]proto.ProcessID, 0, len(order))
		for _, pid := range order {
			if members[pid].leftAt == 0 {
				out = append(out, pid)
			}
		}
		return out
	}

	total := uint64(opts.Rounds + opts.StabilizeRounds)
	for round := uint64(1); round <= total; round++ {
		churning := round <= uint64(opts.Rounds)
		// Joins: subscribe through a random active member.
		for j := 0; churning && j < opts.JoinsPerRound; j++ {
			active := activePIDs()
			if len(active) == 0 {
				return res, errors.New("sim: system emptied during churn")
			}
			contact := active[pick.Intn(len(active))]
			eng, err := newEngine()
			if err != nil {
				return res, err
			}
			joinMsg, err := eng.JoinVia(contact)
			if err != nil {
				return res, err
			}
			members[contact].engine.HandleMessageAppend(joinMsg, round, nil)
			res.Joined++
		}
		// Leaves: random active members (not just joined this round).
		for j := 0; churning && j < opts.LeavesPerRound; j++ {
			active := activePIDs()
			if len(active) <= 2 {
				break
			}
			leaver := active[pick.Intn(len(active))]
			if err := members[leaver].engine.Unsubscribe(round); err != nil {
				continue // refusal (§3.4): try again another round
			}
			members[leaver].leftAt = round
			res.Left++
		}

		// One gossip round over the dynamic population.
		var wire []proto.Message
		for _, pid := range order {
			m := members[pid]
			if m.silenced {
				continue
			}
			if m.leftAt != 0 && round >= m.leftAt+uint64(opts.GraceRounds) {
				m.silenced = true
				continue
			}
			wire = m.engine.TickAppend(round, wire)
		}
		for _, msg := range wire {
			dst, ok := members[msg.To]
			if !network.Classify(&msg, round, round, ok, ok && !dst.silenced, &ledger) {
				continue
			}
			// Departed-but-in-grace members still process traffic.
			dst.engine.HandleMessageAppend(msg, round, nil)
		}

		// Connectivity among active members.
		g := activeGraph(members)
		if c := len(g.Components()); c > res.MaxComponents {
			res.MaxComponents = c
		}
	}
	if err := ledger.Conserved(); err != nil {
		return res, fmt.Errorf("sim: churn: %w", err)
	}

	g := activeGraph(members)
	res.FinalN = len(g)
	res.FinalComponents = len(g.Components())
	mean, stddev, _, _ := g.InDegreeStats()
	res.FinalInDegreeMean = mean
	res.FinalInDegreeStddev = stddev
	// Stale references: active views naming long-departed processes.
	ttl := opts.Engine.Membership.UnsubTTL
	finalRound := total
	for pid, m := range members {
		if m.leftAt != 0 {
			continue
		}
		for _, q := range m.engine.View() {
			if dm, ok := members[q]; ok && dm.leftAt != 0 &&
				finalRound > dm.leftAt+uint64(opts.GraceRounds)+ttl {
				res.StaleReferences++
				_ = pid
			}
		}
	}
	return res, nil
}

// activeGraph builds the view graph over active members, filtering view
// entries of departed processes out of the node set (they may transiently
// appear inside views; Components must still treat actives as the
// population of interest).
func activeGraph(members map[proto.ProcessID]*churnMember) membership.Graph {
	active := map[proto.ProcessID]bool{}
	for pid, m := range members {
		if m.leftAt == 0 {
			active[pid] = true
		}
	}
	g := membership.Graph{}
	for pid, m := range members {
		if !active[pid] {
			continue
		}
		var view []proto.ProcessID
		for _, q := range m.engine.View() {
			if active[q] {
				view = append(view, q)
			}
		}
		g[pid] = view
	}
	return g
}

// String implements fmt.Stringer.
func (r ChurnResult) String() string {
	return fmt.Sprintf("churn(final=%d joined=%d left=%d maxComponents=%d finalComponents=%d indegree=%.1f±%.1f stale=%d)",
		r.FinalN, r.Joined, r.Left, r.MaxComponents, r.FinalComponents, r.FinalInDegreeMean, r.FinalInDegreeStddev, r.StaleReferences)
}
