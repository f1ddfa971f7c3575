// Package pbcast implements the Bimodal Multicast baseline (Birman et al.,
// TOCS 1999) the paper compares against in §6.2: an unreliable first-phase
// multicast followed by an anti-entropy phase in which processes gossip
// digests of received messages and solicit missing ones from the digest's
// sender (gossip pull).
//
// Differences from lpbcast that the paper calls out — and that this
// implementation models — are: (1) the number of hops a message may travel
// is limited, (2) the number of times a process advertises the same
// message is limited, and (3) dissemination is pull-based (digest first,
// then solicitation, then retransmission), which costs one gossip period
// of latency per hop relative to lpbcast's push.
//
// Membership is pluggable, which is the very point of §6.2: a Node runs
// either over a static total view (classic pbcast) or over the lpbcast
// partial-view membership layer, whose subscriptions ride along on the
// digest gossips.
package pbcast

import (
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/membership"
	"repro/internal/proto"
	"repro/internal/rng"
)

// ViewMode selects the membership substrate.
type ViewMode int

const (
	// TotalView is classic pbcast: every process knows every other.
	TotalView ViewMode = iota
	// PartialView runs pbcast over the lpbcast membership layer (§6.2).
	PartialView
)

// String implements fmt.Stringer.
func (m ViewMode) String() string {
	switch m {
	case TotalView:
		return "total"
	case PartialView:
		return "partial"
	default:
		return fmt.Sprintf("viewmode(%d)", int(m))
	}
}

// Config parameterizes a pbcast node.
type Config struct {
	// Fanout is the number of digest-gossip targets per round. The paper
	// uses F=5 for pbcast ("a higher fanout is required to obtain similar
	// results than with lpbcast").
	Fanout int
	// HopLimit bounds how many times a message may be relayed; a message
	// that has already travelled HopLimit hops is delivered but no longer
	// advertised or served. Zero means unlimited.
	HopLimit int
	// Repetitions bounds for how many consecutive rounds a process
	// advertises a given message in its digests. Zero means unlimited.
	Repetitions int
	// MaxStore bounds the retained message buffer (the "notification list
	// size" of Fig. 7(b)); oldest messages are evicted.
	MaxStore int
	// Membership configures the partial-view layer (PartialView mode).
	Membership membership.Config
	// Mode selects total or partial membership.
	Mode ViewMode
}

// DefaultConfig mirrors the paper's §6.2 simulation: F=5, partial view
// l=15, store bound 60, hop and repetition limits small.
func DefaultConfig() Config {
	m := membership.DefaultConfig()
	return Config{
		Fanout:      5,
		HopLimit:    4,
		Repetitions: 2,
		MaxStore:    60,
		Membership:  m,
		Mode:        PartialView,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Fanout <= 0 {
		return errors.New("pbcast: Fanout must be positive")
	}
	if c.MaxStore <= 0 {
		return errors.New("pbcast: MaxStore must be positive")
	}
	if c.HopLimit < 0 || c.Repetitions < 0 {
		return errors.New("pbcast: limits must be non-negative")
	}
	if c.Mode == PartialView {
		if err := c.Membership.Validate(); err != nil {
			return err
		}
		if c.Fanout > c.Membership.MaxView {
			return fmt.Errorf("pbcast: fanout %d exceeds view size %d", c.Fanout, c.Membership.MaxView)
		}
	}
	return nil
}

// Stats counts node activity.
type Stats struct {
	GossipsSent       uint64
	GossipsReceived   uint64
	MessagesPublished uint64
	MessagesDelivered uint64
	DuplicatesDropped uint64
	Solicitations     uint64
	Retransmissions   uint64
	HopLimitRefusals  uint64
}

// storedMsg is a message held for anti-entropy serving.
type storedMsg struct {
	event      proto.Event
	hops       int
	advertised int // rounds this node has advertised the id so far
}

// Deliverer receives messages exactly once each.
type Deliverer func(e proto.Event)

// Node is one pbcast process.
//
// Node is not safe for concurrent use.
type Node struct {
	self    proto.ProcessID
	cfg     Config
	mem     *membership.Manager // nil in TotalView mode
	total   []proto.ProcessID   // static membership in TotalView mode
	store   *buffer.FIFO[*storedMsg]
	deliver Deliverer
	rng     *rng.Source

	pendingReplies []proto.Message // solicited retransmissions, flushed on the next tick
	nextSeq        uint64
	stats          Stats

	// Emission-reuse mode (SetEmissionReuse): the per-round digest gossip,
	// the target list, and the TotalView sample scratch are recycled across
	// ticks instead of freshly allocated.
	reuseEmission  bool
	scratchGossip  *proto.Gossip
	scratchTargets []proto.ProcessID
	scratchIdxs    []int

	// Speculative-emission state (TickCompose/TickAbort/TickCommit): RNG
	// positions at compose time and the deferred mutations a commit
	// applies — the store indices whose advertisement counters advance,
	// and the emitted-target count.
	composeRNG      uint64
	composeMemRNG   uint64
	composedAdv     []int
	composedTargets int
}

// New creates a pbcast node. In TotalView mode, the membership is fixed at
// construction via SetTotalView; in PartialView mode the view evolves from
// gossip like lpbcast's.
func New(self proto.ProcessID, cfg Config, deliver Deliverer, r *rng.Source) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, errors.New("pbcast: rng source must not be nil")
	}
	n := &Node{
		self:    self,
		cfg:     cfg,
		store:   buffer.NewFIFO(func(m *storedMsg) proto.EventID { return m.event.ID }),
		deliver: deliver,
		rng:     r,
	}
	if cfg.Mode == PartialView {
		mem, err := membership.NewManager(self, cfg.Membership, r.Split())
		if err != nil {
			return nil, err
		}
		n.mem = mem
	}
	return n, nil
}

// Self returns the node's process id.
func (n *Node) Self() proto.ProcessID { return n.self }

// Stats returns a snapshot of the activity counters.
func (n *Node) Stats() Stats { return n.stats }

// SetTotalView fixes the complete membership (TotalView mode). The node's
// own id is filtered out.
func (n *Node) SetTotalView(all []proto.ProcessID) {
	n.total = n.total[:0]
	for _, p := range all {
		if p != n.self {
			n.total = append(n.total, p)
		}
	}
}

// SetEmissionReuse switches TickAppend to recycle one gossip message and
// its backing slices across rounds, making the steady-state emission path
// allocation-free — the same seam core.Engine exposes. It is only safe
// when the driver serializes or fully consumes every emitted message
// before the next TickAppend call (the live node's Serializer transports;
// the simulator's synchronous round executor).
func (n *Node) SetEmissionReuse(on bool) { n.reuseEmission = on }

// Seed bootstraps the partial view (PartialView mode).
func (n *Node) Seed(ps []proto.ProcessID) {
	if n.mem != nil {
		n.mem.Seed(ps)
	}
}

// View returns the current membership view (copy).
func (n *Node) View() []proto.ProcessID {
	if n.mem != nil {
		return n.mem.View()
	}
	return append([]proto.ProcessID(nil), n.total...)
}

// ViewLen returns the current view size without copying.
func (n *Node) ViewLen() int {
	if n.mem != nil {
		return n.mem.ViewLen()
	}
	return len(n.total)
}

// ViewCap returns the view bound: l in PartialView mode, the full
// membership size in TotalView mode.
func (n *Node) ViewCap() int {
	if n.mem != nil {
		return n.cfg.Membership.MaxView
	}
	return len(n.total)
}

// Publish broadcasts a new message. The returned event carries the node's
// next sequence number. Dissemination starts with the next digest gossip;
// the caller may additionally run a first-phase unreliable multicast by
// delivering the event to other nodes via HandleFirstPhase.
func (n *Node) Publish(payload []byte) proto.Event {
	n.nextSeq++
	ev := proto.Event{ID: proto.EventID{Origin: n.self, Seq: n.nextSeq}}
	if len(payload) > 0 {
		ev.Payload = append([]byte(nil), payload...)
	}
	n.stats.MessagesPublished++
	n.receiveMessage(ev, 0)
	return ev
}

// HandleFirstPhase injects a message received through the unreliable
// first-phase multicast (IP multicast in the original system).
func (n *Node) HandleFirstPhase(ev proto.Event) {
	n.receiveMessage(ev.Clone(), 0)
}

// Delivered reports whether the node has delivered id. Unlike lpbcast's
// digest this is membership of the bounded store, mirroring the paper's
// pbcast simulation where reliability is limited by buffer eviction.
func (n *Node) Delivered(id proto.EventID) bool { return n.store.Contains(id) }

// receiveMessage delivers ev (once) and stores it for anti-entropy.
func (n *Node) receiveMessage(ev proto.Event, hops int) {
	if n.store.Contains(ev.ID) {
		n.stats.DuplicatesDropped++
		return
	}
	n.stats.MessagesDelivered++
	n.store.Add(&storedMsg{event: ev, hops: hops})
	n.store.TruncateOldest(n.cfg.MaxStore)
	if n.deliver != nil {
		n.deliver(ev)
	}
}

// advertisable reports whether m may still be advertised and served.
func (n *Node) advertisable(m *storedMsg) bool {
	if n.cfg.HopLimit > 0 && m.hops >= n.cfg.HopLimit {
		return false
	}
	if n.cfg.Repetitions > 0 && m.advertised >= n.cfg.Repetitions {
		return false
	}
	return true
}

// targets picks the gossip targets for this round.
func (n *Node) targets() []proto.ProcessID {
	return n.appendTargets(nil)
}

// appendTargets appends the round's gossip targets to dst. Both membership
// substrates consume exactly the same random draws as the allocating pick
// they replace, so reuse mode cannot perturb deterministic schedules.
func (n *Node) appendTargets(dst []proto.ProcessID) []proto.ProcessID {
	// One exact up-front grow, so the non-reuse path costs a single
	// allocation independent of fanout (reuse-mode scratch already has
	// capacity and skips this).
	if cap(dst)-len(dst) < n.cfg.Fanout {
		grown := make([]proto.ProcessID, len(dst), len(dst)+n.cfg.Fanout)
		copy(grown, dst)
		dst = grown
	}
	if n.mem != nil {
		return n.mem.AppendTargets(dst, n.cfg.Fanout)
	}
	if len(n.total) == 0 {
		return dst
	}
	n.scratchIdxs = n.rng.SampleAppend(n.scratchIdxs[:0], len(n.total), n.cfg.Fanout)
	for _, j := range n.scratchIdxs {
		dst = append(dst, n.total[j])
	}
	return dst
}

// TickAppend performs one anti-entropy round: flush replies solicited
// during the previous round, then gossip a digest of advertisable messages
// to Fanout targets. Solicited retransmissions ride the next tick, which
// models the one-period pull latency pbcast pays per hop. The outgoing
// messages are appended to out and the extended slice returned. All
// appended digest gossips share one read-only *proto.Gossip, so the call
// does not allocate per emitted message; receivers must treat the gossip
// as immutable.
//
// TickAppend is TickCompose followed immediately by TickCommit; drivers
// that never speculate use it directly.
func (n *Node) TickAppend(now uint64, out []proto.Message) []proto.Message {
	out = n.TickCompose(now, out)
	n.TickCommit(now)
	return out
}

// TickCompose builds the next anti-entropy emission — queued
// retransmission replies plus the digest gossip — without consuming it:
// the pending replies stay queued, advertisement counters do not advance,
// and no obsolete unsubscription expires until TickCommit. Only the random
// streams move (target selection), and TickAbort rewinds them, so an
// aborted compose leaves the node exactly as it found it. The contract
// matches core.Engine.TickCompose: at most one composed tick outstanding,
// and no other operation between a compose and its commit or abort.
func (n *Node) TickCompose(now uint64, out []proto.Message) []proto.Message {
	n.composeRNG = n.rng.State()
	if n.mem != nil {
		n.composeMemRNG = n.mem.RNGState()
	}
	n.composedAdv = n.composedAdv[:0]
	n.composedTargets = 0

	out = append(out, n.pendingReplies...)

	var g *proto.Gossip
	var targets []proto.ProcessID
	if n.reuseEmission {
		if n.scratchGossip == nil {
			n.scratchGossip = new(proto.Gossip)
		}
		g = n.scratchGossip
		g.From = n.self
		g.Digest = g.Digest[:0]
		g.Subs = g.Subs[:0]
		g.Unsubs = g.Unsubs[:0]
	} else {
		g = &proto.Gossip{From: n.self}
	}
	for i, ln := 0, n.store.Len(); i < ln; i++ {
		m := n.store.At(i)
		if n.advertisable(m) {
			g.Digest = append(g.Digest, m.event.ID)
			n.composedAdv = append(n.composedAdv, i)
		}
	}
	if n.mem != nil {
		if n.reuseEmission {
			g.Subs = n.mem.AppendSubs(g.Subs)
		} else {
			g.Subs = n.mem.AppendSubs(nil)
		}
		g.Unsubs = n.mem.PeekUnsubs(g.Unsubs, now)
	}
	if n.reuseEmission {
		n.scratchTargets = n.appendTargets(n.scratchTargets[:0])
		targets = n.scratchTargets
	} else {
		targets = n.targets()
	}
	for _, t := range targets {
		out = append(out, proto.Message{Kind: proto.GossipMsg, From: n.self, To: t, Gossip: g})
	}
	n.composedTargets = len(targets)
	return out
}

// TickAbort discards the outstanding composed emission, rewinding the
// node's random streams to their pre-compose positions. The caller must
// also discard the messages that compose appended.
func (n *Node) TickAbort() {
	n.rng.Restore(n.composeRNG)
	if n.mem != nil {
		n.mem.RestoreRNGState(n.composeMemRNG)
	}
	n.composedAdv = n.composedAdv[:0]
	n.composedTargets = 0
}

// TickCommit applies the deferred mutations of the outstanding composed
// emission: the flushed replies leave the queue, every advertised
// message's repetition counter advances, gossip statistics update, and
// obsolete unsubscriptions expire. The store indices recorded at compose
// time are still valid because the contract forbids any operation between
// a compose and its commit.
func (n *Node) TickCommit(now uint64) {
	n.pendingReplies = n.pendingReplies[:0]
	for _, i := range n.composedAdv {
		n.store.At(i).advertised++
	}
	n.composedAdv = n.composedAdv[:0]
	n.stats.GossipsSent += uint64(n.composedTargets)
	n.composedTargets = 0
	if n.mem != nil {
		n.mem.ExpireUnsubs(now)
	}
}

// HandleMessageAppend processes one incoming message, appending any
// solicitations to out and returning the extended slice (replies are
// deferred to the next tick).
func (n *Node) HandleMessageAppend(m proto.Message, now uint64, out []proto.Message) []proto.Message {
	switch m.Kind {
	case proto.GossipMsg:
		if m.Gossip == nil {
			return out
		}
		return n.handleGossip(out, m.Gossip, now)
	case proto.RetransmitRequestMsg:
		n.queueRetransmissions(m)
		return out
	case proto.RetransmitReplyMsg:
		for i, ev := range m.Reply {
			hops := 0
			if i < len(m.ReplyHops) {
				hops = int(m.ReplyHops[i])
			}
			n.receiveMessage(ev.Clone(), hops)
		}
		return out
	case proto.SubscribeMsg:
		if n.mem != nil && m.Subscriber != n.self && m.Subscriber != proto.NilProcess {
			n.mem.ApplySubs([]proto.ProcessID{m.Subscriber})
		}
		return out
	default:
		return out
	}
}

// handleGossip applies membership piggyback, then solicits any missing
// messages from the digest sender, appending the solicitation to out.
func (n *Node) handleGossip(out []proto.Message, g *proto.Gossip, now uint64) []proto.Message {
	n.stats.GossipsReceived++
	if n.mem != nil {
		n.mem.ApplyUnsubs(g.Unsubs, now)
		n.mem.ApplySubs(g.Subs)
	}
	var missing []proto.EventID
	for _, id := range g.Digest {
		if !n.store.Contains(id) {
			missing = append(missing, id)
		}
	}
	if len(missing) == 0 {
		return out
	}
	n.stats.Solicitations += uint64(len(missing))
	return append(out, proto.Message{
		Kind:    proto.RetransmitRequestMsg,
		From:    n.self,
		To:      g.From,
		Request: missing,
	})
}

// queueRetransmissions serves a solicitation from the local store; the
// reply is flushed with the next tick (one gossip period of latency).
func (n *Node) queueRetransmissions(m proto.Message) {
	var reply []proto.Event
	var hops []uint32
	for _, id := range m.Request {
		sm, ok := n.store.Get(id)
		if !ok {
			continue
		}
		if n.cfg.HopLimit > 0 && sm.hops >= n.cfg.HopLimit {
			n.stats.HopLimitRefusals++
			continue
		}
		reply = append(reply, sm.event.Clone())
		hops = append(hops, uint32(sm.hops+1))
		n.stats.Retransmissions++
	}
	if len(reply) == 0 {
		return
	}
	n.pendingReplies = append(n.pendingReplies, proto.Message{
		Kind:      proto.RetransmitReplyMsg,
		From:      n.self,
		To:        m.From,
		Reply:     reply,
		ReplyHops: hops,
	})
}
