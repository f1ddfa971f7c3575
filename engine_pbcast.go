package lpbcast

import (
	"errors"
	"fmt"

	"repro/internal/pbcast"
	"repro/internal/proto"
	"repro/internal/rng"
)

// PbcastConfig shapes the pbcast baseline engine (Birman et al., TOCS
// 1999) for the live runtime — the protocol the paper compares against in
// §6.2. Zero values take the paper's defaults (F=5, hop limit 4, two
// advertisement repetitions, store bound 60, partial view l=15).
type PbcastConfig struct {
	// Fanout is the number of digest-gossip targets per round.
	Fanout int
	// HopLimit bounds how many times a message is relayed (<0 = unlimited).
	HopLimit int
	// Repetitions bounds how many rounds a message is advertised
	// (<0 = unlimited).
	Repetitions int
	// MaxStore bounds the retained message buffer.
	MaxStore int
	// ViewSize is the partial view bound l.
	ViewSize int
}

// PbcastEngine returns an EngineFactory running the pbcast baseline behind
// the live Broadcaster API: the same Node, transport batching, and timer
// drive the anti-entropy protocol, enabling head-to-head testbed
// comparisons with lpbcast (§6 of the paper).
//
//	node, err := lpbcast.NewNode(id, tr, lpbcast.WithEngine(
//	        lpbcast.PbcastEngine(lpbcast.PbcastConfig{})))
func PbcastEngine(cfg PbcastConfig) EngineFactory {
	return func(id ProcessID, deliver func(Event), rngSeed uint64) (Engine, error) {
		pc := pbcast.DefaultConfig()
		pc.Mode = pbcast.PartialView
		if cfg.Fanout > 0 {
			pc.Fanout = cfg.Fanout
		}
		if cfg.HopLimit != 0 {
			pc.HopLimit = max(cfg.HopLimit, 0)
		}
		if cfg.Repetitions != 0 {
			pc.Repetitions = max(cfg.Repetitions, 0)
		}
		if cfg.MaxStore > 0 {
			pc.MaxStore = cfg.MaxStore
		}
		if cfg.ViewSize > 0 {
			pc.Membership.MaxView = cfg.ViewSize
			pc.Membership.MaxSubs = cfg.ViewSize
		}
		var sink pbcast.Deliverer
		if deliver != nil {
			sink = func(ev proto.Event) { deliver(ev) }
		}
		node, err := pbcast.New(id, pc, sink, rng.New(rngSeed))
		if err != nil {
			return nil, err
		}
		return &pbcastEngine{n: node}, nil
	}
}

// pbcastEngine adapts *pbcast.Node to the live Engine interface.
type pbcastEngine struct {
	n *pbcast.Node
}

func (p *pbcastEngine) Publish(payload []byte) (Event, error) { return p.n.Publish(payload) }

func (p *pbcastEngine) TickAppend(now uint64, out []Message) []Message {
	return p.n.TickAppend(now, out)
}

func (p *pbcastEngine) HandleMessageAppend(m Message, now uint64, out []Message) []Message {
	return p.n.HandleMessageAppend(m, now, out)
}

func (p *pbcastEngine) View() []ProcessID { return p.n.View() }

func (p *pbcastEngine) ViewLen() int { return p.n.ViewLen() }

func (p *pbcastEngine) ViewCap() int { return p.n.ViewCap() }

func (p *pbcastEngine) Seed(ps []ProcessID) { p.n.Seed(ps) }

func (p *pbcastEngine) Knows(id EventID) bool { return p.n.Delivered(id) }

// SetEmissionReuse forwards the reuse-mode seam, so a pbcast engine on a
// live node runs the same zero-alloc emission path as lpbcast.
func (p *pbcastEngine) SetEmissionReuse(on bool) { p.n.SetEmissionReuse(on) }

// Stats maps the pbcast counters onto the shared Broadcaster counters so
// the two protocols report through one vocabulary: solicitations are
// retransmission requests, served retransmissions are retransmissions.
func (p *pbcastEngine) Stats() Stats {
	s := p.n.Stats()
	return Stats{
		GossipsSent:        s.GossipsSent,
		GossipsReceived:    s.GossipsReceived,
		EventsPublished:    s.MessagesPublished,
		EventsDelivered:    s.MessagesDelivered,
		DuplicatesDropped:  s.DuplicatesDropped,
		RetransmitRequests: s.Solicitations,
		RetransmitServed:   s.Retransmissions,
	}
}

// JoinVia seeds the view with the contact and returns the subscription
// request; pbcast over the partial-view membership layer joins exactly
// like lpbcast (§6.2: subscriptions ride along on the digest gossips).
func (p *pbcastEngine) JoinVia(contact ProcessID) (Message, error) {
	if contact == p.n.Self() || contact == NilProcess {
		return Message{}, fmt.Errorf("lpbcast: invalid join contact %v", contact)
	}
	p.n.Seed([]ProcessID{contact})
	return Message{
		Kind:       SubscribeMsgKind,
		From:       p.n.Self(),
		To:         contact,
		Subscriber: p.n.Self(),
	}, nil
}

// Unsubscribe is unsupported: the pbcast baseline has no gossiped
// unsubscription phase.
func (p *pbcastEngine) Unsubscribe(now uint64) error {
	return errors.New("lpbcast: the pbcast baseline does not support graceful unsubscription")
}
