// Package proto defines the protocol-level types shared by every layer of
// the lpbcast implementation: process identifiers, event notifications,
// subscriptions/unsubscriptions, and the gossip message itself (§3.2 of the
// paper), and the arena emissions are cut from (EmitArena). Keeping these in
// one package that depends on nothing but the allocators of internal/pool
// lets the membership layer, the protocol engine, the wire codec, the
// simulator and the pbcast baseline agree on vocabulary without import
// cycles.
package proto

import (
	"errors"
	"fmt"
	"math"
)

// ProcessID identifies a process. The paper's system model (§3.1) requires
// ordered distinct identifiers; uint32 gives both ordering and cheap map
// keys, and halves every list of ids the engines hold. ID 0 is reserved as
// "no process". An id past 2^32-1 is unrepresentable: the wire decoder and
// every parser of a user-given id refuse one.
type ProcessID uint32

// NilProcess is the zero ProcessID, used to mean "no process".
const NilProcess ProcessID = 0

// String implements fmt.Stringer.
func (p ProcessID) String() string { return fmt.Sprintf("p%d", uint32(p)) }

// EventID uniquely identifies a notification. Per §3.2 the identifier
// "include[s] the identifier of the originator", which enables the
// per-sender digest optimization: Origin plus a per-origin sequence number,
// 8 bytes in all. Sequence numbers start at 1 and end at MaxSeq: Publish
// refuses to go past it, and the wire decoder refuses a larger one.
type EventID struct {
	Origin ProcessID
	Seq    uint32
}

// MaxSeq is the last sequence number an origin can publish.
const MaxSeq = math.MaxUint32

// ErrSeqExhausted is returned by a Publish past MaxSeq. A process that has
// published that many events re-subscribes under a new id (§3.4).
var ErrSeqExhausted = errors.New("sequence numbers exhausted: publish under a new process id")

// String implements fmt.Stringer.
func (id EventID) String() string {
	return fmt.Sprintf("%s#%d", id.Origin, id.Seq)
}

// Less orders event identifiers by (Origin, Seq).
func (id EventID) Less(other EventID) bool {
	if id.Origin != other.Origin {
		return id.Origin < other.Origin
	}
	return id.Seq < other.Seq
}

// Event is a notification: the application payload of a gossip message.
// Events are the unit the application publishes (LPB-CAST) and the unit
// delivered exactly once per process (LPB-DELIVER).
type Event struct {
	ID      EventID
	Payload []byte
}

// Clone returns a deep copy of the event, so buffers can retain events
// without aliasing caller-owned payload slices (copy-at-boundary rule).
func (e Event) Clone() Event {
	if e.Payload == nil {
		return Event{ID: e.ID}
	}
	p := make([]byte, len(e.Payload))
	copy(p, e.Payload)
	return Event{ID: e.ID, Payload: p}
}

// Unsubscription records a process leaving the system. The paper (§3.4)
// attaches a timestamp so unsubscriptions become obsolete after a while and
// do not circulate forever. Stamp is in deployment-defined logical units:
// gossip rounds in simulation, milliseconds in a live node.
type Unsubscription struct {
	Process ProcessID
	Stamp   uint64
}

// Gossip is the protocol message of lpbcast (§3.2). One message serves four
// purposes: carrying fresh notifications, a digest of delivered
// notification identifiers, unsubscriptions, and subscriptions.
//
// Sharing contract: the engines' TickAppend emits one Gossip, cut from an
// EmitArena, shared by all fanout targets of a round and valid until that
// arena is reset, so receivers must treat an incoming Gossip (and everything
// it references) as read-only and Clone events before retaining them.
// Callers that need independently mutable or longer-lived messages deep-copy
// them with Clone.
type Gossip struct {
	// From is the sending process. The sender always includes itself in
	// Subs as well (Fig. 1(b)); From additionally lets receivers answer
	// retransmission requests.
	From ProcessID
	// Subs are subscriptions: process identifiers to merge into views.
	Subs []ProcessID
	// Unsubs are unsubscriptions to purge from views and keep forwarding.
	Unsubs []Unsubscription
	// Events are notifications received for the first time since the last
	// outgoing gossip.
	Events []Event
	// Digest lists identifiers of notifications the sender has delivered,
	// enabling receivers to detect missing notifications.
	Digest []EventID
	// DigestWatermarks carries the compact-digest form (§3.2 optimization):
	// an entry {Origin, Seq} advertises that every notification from Origin
	// with sequence number <= Seq has been delivered by the sender. Empty
	// when the flat digest is in use.
	DigestWatermarks []EventID
}

// Clone returns a deep copy of the gossip message.
func (g Gossip) Clone() Gossip {
	out := Gossip{From: g.From}
	if g.Subs != nil {
		out.Subs = append([]ProcessID(nil), g.Subs...)
	}
	if g.Unsubs != nil {
		out.Unsubs = append([]Unsubscription(nil), g.Unsubs...)
	}
	if g.Events != nil {
		out.Events = make([]Event, len(g.Events))
		for i, e := range g.Events {
			out.Events[i] = e.Clone()
		}
	}
	if g.Digest != nil {
		out.Digest = append([]EventID(nil), g.Digest...)
	}
	if g.DigestWatermarks != nil {
		out.DigestWatermarks = append([]EventID(nil), g.DigestWatermarks...)
	}
	return out
}

// MessageKind discriminates the wire-level messages exchanged by processes.
type MessageKind uint8

// Message kinds. GossipMsg carries a Gossip; SubscribeMsg is the initial
// subscription request a joining process sends to a known member (§3.4);
// RetransmitRequestMsg/RetransmitReplyMsg implement the optional gossip
// pull for notifications detected missing via digests.
const (
	GossipMsg MessageKind = iota + 1
	SubscribeMsg
	RetransmitRequestMsg
	RetransmitReplyMsg
)

// String implements fmt.Stringer.
func (k MessageKind) String() string {
	switch k {
	case GossipMsg:
		return "gossip"
	case SubscribeMsg:
		return "subscribe"
	case RetransmitRequestMsg:
		return "retransmit-request"
	case RetransmitReplyMsg:
		return "retransmit-reply"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is the envelope put on the wire between processes. The ids and
// the kind come first and share 16 bytes, so the envelope is 96.
type Message struct {
	From ProcessID
	To   ProcessID
	// Subscriber is set for SubscribeMsg: the joining process.
	Subscriber ProcessID
	Kind       MessageKind

	// Gossip is set for GossipMsg.
	Gossip *Gossip
	// Request is set for RetransmitRequestMsg: identifiers wanted.
	Request []EventID
	// Reply is set for RetransmitReplyMsg: the retransmitted events.
	Reply []Event
	// ReplyHops optionally parallels Reply with per-event hop counts
	// (used by the pbcast baseline's hop limit). Empty means zero hops.
	ReplyHops []uint32
}

// Clone returns a deep copy of the message, so that nothing in it aliases
// memory its sender goes on to reuse (an engine's emission arena, a
// transport's decode storage).
func (m Message) Clone() Message {
	out := m
	if m.Gossip != nil {
		g := m.Gossip.Clone()
		out.Gossip = &g
	}
	if len(m.Request) > 0 {
		out.Request = append([]EventID(nil), m.Request...)
	}
	if len(m.Reply) > 0 {
		out.Reply = make([]Event, len(m.Reply))
		for i, ev := range m.Reply {
			out.Reply[i] = ev.Clone()
		}
	}
	if len(m.ReplyHops) > 0 {
		out.ReplyHops = append([]uint32(nil), m.ReplyHops...)
	}
	return out
}
