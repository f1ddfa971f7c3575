// Package netmodel is the one place the deterministic harnesses — the
// simulator's clusters and the pub/sub Bus — decide what the network does
// to a message: the paper's §4.1 failure model (loss ε, crashed
// processes) with per-link topologies, delays and scheduled partitions.
//
// Classify applies one filter order: unknown destination, partition, crash,
// loss, delay. The first three draw nothing; the loss model draws once per
// message that reaches it and the delay model once per survivor, so the
// streams' positions are a pure function of the harness's state. Partitions
// cut at send time (fault.Partition). A delayed message waits in the
// in-flight ring (inflight.go) until Arrive settles it. Every message is
// counted in the stats.NetStats ledger the caller names, and every ledger
// stays conserved.
package netmodel

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/stats"
)

// MaxDelayRounds caps a round-granular delay model's MaxDelay on the round
// clock: the in-flight ring is pre-sized to MaxDelay+1 buckets, so the bound
// keeps a misconfigured model from allocating an absurd ring.
const MaxDelayRounds = 4096

// MaxSpanMs caps the delay span in virtual milliseconds on an event clock,
// where the in-flight ring is keyed by instant: one bucket per millisecond
// of span.
const MaxSpanMs = 1 << 16

// Config is a harness's network.
type Config struct {
	// Epsilon is the per-message loss probability ε, in [0, 1). Under a
	// Topology it is the fallback of link profiles with a negative Epsilon.
	Epsilon float64
	// Topology assigns every (src, dst) link a class with its own loss
	// probability and delay range; nil is a flat network of LinkLocal
	// links under Bernoulli ε.
	Topology fault.Topology
	// Delay is how long a surviving message spends in flight. nil means
	// the Topology's link delays if it has any (fault.TopologyDelay), and
	// same-instant delivery otherwise.
	Delay fault.DelayModel
	// Partitions cuts link classes during [From, To) round windows;
	// windows cutting one class must not overlap.
	Partitions []fault.Partition
}

// Clock is what the harness's time base means to the network.
type Clock struct {
	// PeriodMs is the gossip period in virtual milliseconds on an event
	// clock. 0 is the round clock: one instant per period, on which a
	// millisecond delay model cannot be honored.
	PeriodMs uint64
	// Horizon is the round before which every partition window must start;
	// 0 leaves it unbounded.
	Horizon uint64
}

// EffectiveDelay returns the delay model in force: an explicit Delay, the
// topology's link profiles when any of them delays, or nil — nothing is
// ever in flight.
func (c Config) EffectiveDelay() fault.DelayModel {
	if c.Delay != nil {
		return c.Delay
	}
	if c.Topology != nil && fault.MaxLinkDelay(c.Topology) > 0 {
		return fault.TopologyDelay{T: c.Topology}
	}
	return nil
}

// Validate states every rule a network obeys on the given clock, for every
// harness.
func (c Config) Validate(clock Clock) error {
	if c.Epsilon < 0 || c.Epsilon >= 1 {
		return fmt.Errorf("netmodel: epsilon %v out of [0,1)", c.Epsilon)
	}
	if c.Delay != nil {
		if err := c.Delay.Validate(); err != nil {
			return fmt.Errorf("netmodel: delay model: %w", err)
		}
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return fmt.Errorf("netmodel: topology: %w", err)
		}
	}
	if d := c.EffectiveDelay(); d != nil {
		// No mixed time units: the round clock would read milliseconds as
		// rounds, and a topology's link delays are round-granular.
		millis := fault.Unit(d) == fault.UnitMillis
		if millis && clock.PeriodMs == 0 {
			return fmt.Errorf("netmodel: a millisecond delay model requires the event clock; the round clock cannot honor sub-round latencies")
		}
		if millis && c.Topology != nil && fault.MaxLinkDelay(c.Topology) > 0 {
			return fmt.Errorf("netmodel: the network mixes a millisecond delay model with round-granular topology link delays; express the delays in one unit")
		}
		max := d.MaxDelay()
		if max < 0 {
			return fmt.Errorf("netmodel: delay model MaxDelay %d negative", max)
		}
		if clock.PeriodMs > 0 {
			span := uint64(max)
			if !millis {
				span *= clock.PeriodMs
			}
			if span > MaxSpanMs {
				return fmt.Errorf("netmodel: delay span %d ms exceeds the event clock's bound %d ms", span, MaxSpanMs)
			}
		} else if max > MaxDelayRounds {
			return fmt.Errorf("netmodel: delay model MaxDelay %d outside [0,%d]", max, MaxDelayRounds)
		}
	}
	if len(c.Partitions) > 0 {
		classes := 1
		if c.Topology != nil {
			classes = c.Topology.Classes()
		}
		if err := fault.ValidatePartitions(c.Partitions, classes, clock.Horizon); err != nil {
			return fmt.Errorf("netmodel: %w", err)
		}
	}
	return nil
}

// Model is a validated network at work.
type Model struct {
	// Loss is the loss model in force. New derives it from the Config —
	// per-link loss under a Topology, Bernoulli ε otherwise; a harness may
	// replace it before the first message.
	Loss fault.LossModel

	topo     fault.Topology    // nil: every link LinkLocal
	parts    []fault.Partition // scheduled link cuts
	delay    fault.DelayModel  // nil: nothing is ever in flight
	delayRNG *rng.Source
	maxDelay int
	unitMs   uint64         // instants per delay unit: the period for round models, 1 for Millis
	fl       *inflightQueue // delayed-message ring (delay != nil only)
}

// New builds the model of a network that Validate accepted on clock, drawing
// loss and delay from the streams the caller split in its own fixed order
// (delay may be nil when EffectiveDelay is).
func New(cfg Config, clock Clock, loss, delay *rng.Source) *Model {
	m := &Model{topo: cfg.Topology, parts: cfg.Partitions}
	if cfg.Topology != nil {
		m.Loss = fault.NewTopologyLoss(cfg.Topology, cfg.Epsilon, loss)
	} else {
		m.Loss = fault.NewBernoulli(cfg.Epsilon, loss)
	}
	if d := cfg.EffectiveDelay(); d != nil {
		m.delay, m.delayRNG, m.maxDelay = d, delay, d.MaxDelay()
		m.unitMs = max(clock.PeriodMs, 1)
		if fault.Unit(d) == fault.UnitMillis {
			m.unitMs = 1
		}
		m.fl = newInflight(m.maxDelay*int(m.unitMs), int(max(clock.PeriodMs, 1)))
	}
	return m
}

// SetPoison selects the harness's buffer-poisoning debug mode: EndPeriod
// poisons the request, reply and hops of every message drained in the
// period (see inflightQueue.poisonSpent).
func (m *Model) SetPoison(on bool) {
	if m.fl != nil {
		m.fl.check = on
	}
}

// Generations is the number of periods a message can be in flight across,
// the one that classified it included: it arrives by the end of period
// p + Generations() - 1 if Classify saw it in period p, and whatever it
// references must stay unchanged until then (a proto.EmitArena of as many
// generations keeps it so). It is 1 with no delay model.
func (m *Model) Generations() int {
	if m.fl == nil {
		return 1
	}
	return len(m.fl.gens)
}

// Classify runs msg, sent in round round at virtual instant instant, through
// the network and counts it in ledger: in Sent and in exactly one of
// UnknownDest, DroppedInPartition, ToCrashed, Dropped or Delivered — or, when
// it draws a nonzero delay, in InFlight, with msg parked in the ring until
// Arrive settles it. known and alive are the caller's verdict on the
// destination at send time: whether it is a member, and whether it can
// receive. Classify reports whether msg is delivered now. The caller may
// rewrite *msg the moment Classify returns, but a parked message is kept
// by value: what it references — its gossip and that gossip's lists, a
// request, a reply — must stay unchanged for Generations() periods.
func (m *Model) Classify(msg *proto.Message, round, instant uint64, known, alive bool, ledger *stats.NetStats) bool {
	ledger.Sent++
	if !m.reaches(msg.From, msg.To, round, known, alive, ledger) {
		return false
	}
	if m.Loss.Drop(msg.From, msg.To, round) {
		ledger.Dropped++
		return false
	}
	if m.delay != nil {
		d := m.delay.Delay(msg.From, msg.To, round, m.delayRNG)
		if d < 0 || d > m.maxDelay {
			// A model returning a negative delay or more than its declared
			// MaxDelay would silently skew results or corrupt the ring; fail
			// loudly instead.
			panic(fmt.Sprintf("netmodel: delay %d outside the model's [0, MaxDelay=%d]", d, m.maxDelay))
		}
		if d > 0 {
			m.fl.enqueue(msg, ledger, instant+uint64(d)*m.unitMs, round)
			ledger.InFlight++
			return false
		}
	}
	ledger.Delivered++
	return true
}

// Multicast classifies one receiver's copy of an unreliable first-phase
// multicast (Bimodal Multicast's stand-in for IP multicast) from a member to
// a member: the filter of Classify, with the phase's own delivery
// probability p, drawn from phase, applied between the crash check and the
// loss model, and no delay — the phase is modeled as instantaneous. A copy
// the phase loses counts as Dropped.
func (m *Model) Multicast(from, to proto.ProcessID, round uint64, alive bool, ledger *stats.NetStats, phase *rng.Source, p float64) bool {
	ledger.Sent++
	if !m.reaches(from, to, round, true, alive, ledger) {
		return false
	}
	if !phase.Bool(p) || m.Loss.Drop(from, to, round) {
		ledger.Dropped++
		return false
	}
	ledger.Delivered++
	return true
}

// reaches applies the filter's draw-free steps — unknown destination,
// partition, crash — and counts a message they stop.
func (m *Model) reaches(from, to proto.ProcessID, round uint64, known, alive bool, ledger *stats.NetStats) bool {
	switch {
	case !known:
		ledger.UnknownDest++
	case len(m.parts) > 0 && fault.CutLink(m.parts, m.linkClass(from, to), round):
		ledger.DroppedInPartition++
	case !alive:
		ledger.ToCrashed++
	default:
		return true
	}
	return false
}

// linkClass resolves the class of a link under the topology; without one,
// every link is LinkLocal.
func (m *Model) linkClass(src, dst proto.ProcessID) fault.LinkClass {
	if m.topo != nil {
		return m.topo.Class(src, dst)
	}
	return fault.LinkLocal
}

// Arrive settles one delayed message at its arrival instant into the ledger
// it was classified into (Drain hands it out beside the message): it leaves
// InFlight and lands in UnknownDest or ToCrashed — the destination left or
// crashed while it was in the air — or in Delivered and DeliveredLate.
// known and alive are the caller's verdict on the destination now. Arrive
// reports whether the message is delivered. Partition, loss and delay were
// decided at send time; nothing here draws, so arrivals perturb no stream.
func Arrive(ledger *stats.NetStats, known, alive bool) bool {
	ledger.InFlight--
	switch {
	case !known:
		ledger.UnknownDest++
	case !alive:
		ledger.ToCrashed++
	default:
		ledger.Delivered++
		ledger.DeliveredLate++
		return true
	}
	return false
}

// Due reports the earliest instant with arrivals pending, if it is at or
// before limit.
func (m *Model) Due(limit uint64) (uint64, bool) { return m.fl.due(limit) }

// Drain empties the ring's bucket of instant at: it appends the messages
// arriving there to msgs, in the order Classify parked them, and the ledger
// each was classified into to ledgers, for Arrive. Instants must be drained
// in order (Due names them). Consumers must be done with what the messages
// reference by EndPeriod: the debug mode poisons a request, reply and hops
// then, and a gossip goes back to its sender's arena within Generations() - 1
// periods.
func (m *Model) Drain(at uint64, msgs []proto.Message, ledgers []*stats.NetStats) ([]proto.Message, []*stats.NetStats) {
	return m.fl.drain(at, msgs, ledgers)
}

// EndPeriod closes a gossip period whose last instant is at, once every
// consumer of the period's arrivals is done: it poisons their requests and
// replies (in SetPoison's debug mode), advances the ring's scheduler to at, and
// takes back the envelopes of the oldest period's messages, which have all
// arrived. A harness calls it exactly once per period.
func (m *Model) EndPeriod(at uint64) {
	if m.fl != nil {
		m.fl.endPeriod(at)
	}
}
