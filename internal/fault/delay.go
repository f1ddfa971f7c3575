package fault

import (
	"fmt"

	"repro/internal/proto"
	"repro/internal/rng"
)

// DelayModel decides, per message, how many whole rounds (gossip periods)
// a surviving message spends in flight before it is delivered: a message
// sent at round r with delay d arrives at the top of round r+d, and d = 0
// preserves the paper's §5.1 same-round semantics.
//
// Unlike LossModel implementations, delay models own no RNG: all draws go
// through the *rng.Source the caller passes in. That makes every model an
// immutable value that experiment runners can copy and share across
// repeats and executors — the draw stream (and with it reproducibility)
// belongs to the simulation, not to the model.
type DelayModel interface {
	// Delay returns the delivery delay in rounds for a message from src
	// to dst sent at round now, drawing any jitter from r.
	Delay(src, dst proto.ProcessID, now uint64, r *rng.Source) int
	// MaxDelay bounds every value Delay can return; the simulator uses it
	// to pre-size its in-flight ring.
	MaxDelay() int
	// Validate reports configuration errors.
	Validate() error
}

// delayBetween draws a uniform delay in [min, max], consuming a draw only
// when the bounds actually differ, so degenerate ranges stay draw-free.
func delayBetween(min, max int, r *rng.Source) int {
	if max <= min {
		return min
	}
	return min + r.Intn(max-min+1)
}

// FixedDelay delays every message by the same number of rounds.
type FixedDelay struct {
	Rounds int
}

// Delay implements DelayModel.
func (d FixedDelay) Delay(_, _ proto.ProcessID, _ uint64, _ *rng.Source) int { return d.Rounds }

// MaxDelay implements DelayModel.
func (d FixedDelay) MaxDelay() int { return d.Rounds }

// Validate implements DelayModel.
func (d FixedDelay) Validate() error {
	if d.Rounds < 0 {
		return fmt.Errorf("fault: negative fixed delay %d", d.Rounds)
	}
	return nil
}

// UniformDelay draws each message's delay independently and uniformly from
// [Min, Max] rounds — link-independent jitter, the delay analog of
// Bernoulli loss.
type UniformDelay struct {
	Min, Max int
}

// Delay implements DelayModel.
func (d UniformDelay) Delay(_, _ proto.ProcessID, _ uint64, r *rng.Source) int {
	return delayBetween(d.Min, d.Max, r)
}

// MaxDelay implements DelayModel.
func (d UniformDelay) MaxDelay() int { return d.Max }

// Validate implements DelayModel.
func (d UniformDelay) Validate() error {
	if d.Min < 0 || d.Max < 0 {
		return fmt.Errorf("fault: negative uniform delay [%d,%d]", d.Min, d.Max)
	}
	if d.Min > d.Max {
		return fmt.Errorf("fault: uniform delay bounds inverted [%d,%d]", d.Min, d.Max)
	}
	return nil
}

// TopologyDelay draws each message's delay from its link class: uniformly
// from the class profile's [MinDelay, MaxDelay]. This is the model a
// simulator derives automatically when a Topology is configured.
type TopologyDelay struct {
	T Topology
}

// Delay implements DelayModel.
func (d TopologyDelay) Delay(src, dst proto.ProcessID, _ uint64, r *rng.Source) int {
	p := d.T.Profile(d.T.Class(src, dst))
	return delayBetween(p.MinDelay, p.MaxDelay, r)
}

// MaxDelay implements DelayModel.
func (d TopologyDelay) MaxDelay() int { return MaxLinkDelay(d.T) }

// Validate implements DelayModel.
func (d TopologyDelay) Validate() error {
	if d.T == nil {
		return fmt.Errorf("fault: topology delay without a topology")
	}
	return d.T.Validate()
}
