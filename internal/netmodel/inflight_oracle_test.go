package netmodel

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/stats"
)

// refSlot is one deep copy of a whole message, gossip included, taken when
// the message is parked. copyEvents and copyMessage are kept verbatim (only
// the receiver renamed) because they define what a drained message must
// hold and are trivially right. Do not optimise them. The reference never
// recycles a slot, so nothing it hands out can alias anything else.
//
// The ring parks messages by value and copies nothing they reference, so
// the drivers here keep to the ownership contract (inflight.go): every
// gossip is cut from a proto.EmitArena of the ring's Generations(), rotated
// at the end of every period and poisoning what it takes back, and every
// request and reply is the one message's. Mutations of the ring these tests
// were seen to catch: a ring one generation short (its envelopes are reset
// under messages still in the air); poisonSpent poisoning a drained gossip
// (a later envelope of the same emission reads sentinels). FuzzNet, whose
// arena is sized by Model.Generations, catches that one short (the arena
// poisons gossips still in the air). A generation never reset only costs
// memory, so the oracle passes it; TestRetainedBytesFollowTraffic does not.
type refSlot struct {
	gossip  proto.Gossip
	request []proto.EventID
	reply   []proto.Event
	hops    []uint32
	payload []byte // flat arena for event payload bytes
}

func (s *refSlot) copyEvents(dst, src []proto.Event) []proto.Event {
	for _, e := range src {
		out := proto.Event{ID: e.ID}
		if e.Payload != nil {
			start := len(s.payload)
			s.payload = append(s.payload, e.Payload...)
			out.Payload = s.payload[start:len(s.payload):len(s.payload)]
		}
		dst = append(dst, out)
	}
	return dst
}

func (s *refSlot) copyMessage(m proto.Message) proto.Message {
	need := 0
	if m.Gossip != nil {
		for _, e := range m.Gossip.Events {
			need += len(e.Payload)
		}
	}
	for _, e := range m.Reply {
		need += len(e.Payload)
	}
	if cap(s.payload) < need {
		s.payload = make([]byte, 0, need)
	} else {
		s.payload = s.payload[:0]
	}

	out := proto.Message{Kind: m.Kind, From: m.From, To: m.To, Subscriber: m.Subscriber}
	if g := m.Gossip; g != nil {
		dst := &s.gossip
		dst.From = g.From
		dst.Subs = append(dst.Subs[:0], g.Subs...)
		dst.Unsubs = append(dst.Unsubs[:0], g.Unsubs...)
		dst.Digest = append(dst.Digest[:0], g.Digest...)
		dst.DigestWatermarks = append(dst.DigestWatermarks[:0], g.DigestWatermarks...)
		dst.Events = s.copyEvents(dst.Events[:0], g.Events)
		out.Gossip = dst
	}
	if m.Request != nil {
		s.request = append(s.request[:0], m.Request...)
		out.Request = s.request
	}
	if m.Reply != nil {
		s.reply = s.copyEvents(s.reply[:0], m.Reply)
		out.Reply = s.reply
	}
	if m.ReplyHops != nil {
		s.hops = append(s.hops[:0], m.ReplyHops...)
		out.ReplyHops = s.hops
	}
	return out
}

func sameEvents(a, b []proto.Event) bool {
	return slices.EqualFunc(a, b, func(x, y proto.Event) bool {
		return x.ID == y.ID && bytes.Equal(x.Payload, y.Payload)
	})
}

// sameGossip is deep equality of two gossips, an empty slice equal to a nil
// one: recycled storage never told them apart.
func sameGossip(g, h *proto.Gossip) bool {
	return g.From == h.From && slices.Equal(g.Subs, h.Subs) && slices.Equal(g.Unsubs, h.Unsubs) &&
		slices.Equal(g.Digest, h.Digest) && slices.Equal(g.DigestWatermarks, h.DigestWatermarks) &&
		sameEvents(g.Events, h.Events)
}

// sameMessage is deep equality of two messages, an empty slice equal to a
// nil one: recycled storage never told them apart, payloads included (an
// empty payload comes out nil or not according to the arena's past).
func sameMessage(a, b proto.Message) bool {
	if a.Kind != b.Kind || a.From != b.From || a.To != b.To || a.Subscriber != b.Subscriber ||
		(a.Gossip == nil) != (b.Gossip == nil) {
		return false
	}
	if a.Gossip != nil && !sameGossip(a.Gossip, b.Gossip) {
		return false
	}
	return slices.Equal(a.Request, b.Request) && sameEvents(a.Reply, b.Reply) && slices.Equal(a.ReplyHops, b.ReplyHops)
}

// parked is what the reference holds for one envelope: its copy and the
// ledger the message was classified into.
type parked struct {
	msg    proto.Message
	ledger *stats.NetStats
}

// ringPair drives an inflightQueue and the per-envelope reference in lock
// step, the way a harness does: cut gossips from an arena of the ring's
// generations, enqueue under a period, drain by bucket key, and end each
// period at its last instant, then rotate the arena. What a period drained
// must still match the reference when the period ends; its requests and
// replies are poisoned after.
type ringPair struct {
	t       *testing.T
	seed    uint64
	q       *inflightQueue
	arena   proto.EmitArena     // the senders' storage, G generations
	want    map[uint64][]parked // arrival key → reference copies, in enqueue order
	drained []proto.Message     // this period's arrivals, beside their references
	refs    []parked
	ledgers [2]stats.NetStats // envelopes alternate between two ledgers
	next    int
}

// newRingPair creates a ring of span instants on a clock of period instants
// per period, in the poisoning debug mode.
func newRingPair(t *testing.T, seed uint64, span, period int) *ringPair {
	q := newInflight(span, period)
	q.check = true
	p := &ringPair{t: t, seed: seed, q: q, want: map[uint64][]parked{}}
	p.arena.SetGenerations(len(q.gens))
	p.arena.SetPoison(PoisonGossip)
	return p
}

// cutGossip cuts a gossip holding want's contents from the arena, as an
// engine's tick does.
func (p *ringPair) cutGossip(want proto.Gossip) *proto.Gossip {
	a := &p.arena
	g := a.Gossip()
	g.From = want.From
	g.Subs = append(a.PIDs(len(want.Subs))[:0], want.Subs...)
	g.Unsubs = append(a.Unsubs(len(want.Unsubs))[:0], want.Unsubs...)
	g.Digest = append(a.IDs(len(want.Digest))[:0], want.Digest...)
	g.DigestWatermarks = append(a.IDs(len(want.DigestWatermarks))[:0], want.DigestWatermarks...)
	g.Events = append(a.Events(len(want.Events))[:0], want.Events...)
	return g
}

func (p *ringPair) enqueue(m proto.Message, at, period uint64) {
	ledger := &p.ledgers[p.next%len(p.ledgers)]
	p.next++
	p.q.enqueue(&m, ledger, at, period)
	p.want[at] = append(p.want[at], parked{new(refSlot).copyMessage(m), ledger})
}

func (p *ringPair) drain(at uint64) {
	p.t.Helper()
	got, ledgers := p.q.drain(at, nil, nil)
	want := p.want[at]
	delete(p.want, at)
	if len(got) != len(want) || len(ledgers) != len(want) {
		p.t.Fatalf("seed %d: drain(%d) returned %d messages and %d ledgers, reference %d", p.seed, at, len(got), len(ledgers), len(want))
	}
	for i := range got {
		p.compare(fmt.Sprintf("drain(%d) message %d", at, i), got[i], want[i].msg)
		if ledgers[i] != want[i].ledger {
			p.t.Fatalf("seed %d: drain(%d) message %d came back with ledger %p, classified into %p", p.seed, at, i, ledgers[i], want[i].ledger)
		}
	}
	p.drained = append(p.drained, got...)
	p.refs = append(p.refs, want...)
}

func (p *ringPair) compare(what string, got, want proto.Message) {
	p.t.Helper()
	if !sameMessage(got, want) {
		p.t.Fatalf("seed %d: %s = %+v (gossip %+v), reference %+v (gossip %+v)", p.seed, what, got, got.Gossip, want, want.Gossip)
	}
}

// endPeriod ends the period whose last instant is at: its arrivals must
// have kept their contents until now, and their requests and replies are
// poisoned after. The senders' arena then takes back its oldest generation.
func (p *ringPair) endPeriod(at uint64) {
	p.t.Helper()
	for i, m := range p.drained {
		p.compare(fmt.Sprintf("arrival %d at the end of the period ending at %d", i, at), m, p.refs[i].msg)
	}
	p.q.endPeriod(at)
	spent := func(id proto.EventID) bool { return id == SentinelEventID }
	for _, m := range p.drained {
		if !all(m.Request, spent) || !all(m.Reply, func(e proto.Event) bool { return spent(e.ID) }) ||
			!all(m.ReplyHops, func(h uint32) bool { return h == ^uint32(0) }) {
			p.t.Fatalf("seed %d: an arrival of the period ending at %d kept its request or reply past the period: %+v", p.seed, at, m)
		}
	}
	p.arena.Reset()
	p.drained, p.refs = p.drained[:0], p.refs[:0]
}

func all[T any](s []T, f func(T) bool) bool {
	return !slices.ContainsFunc(s, func(x T) bool { return !f(x) })
}

// quiescent requires an empty ring with nothing kept for poisoning.
func (p *ringPair) quiescent() {
	p.t.Helper()
	if len(p.want) != 0 {
		p.t.Fatalf("seed %d: the test left %d arrival keys undrained", p.seed, len(p.want))
	}
	for i, b := range p.q.buckets {
		if b.head != nil || b.tail != nil {
			p.t.Fatalf("seed %d: bucket %d still holds an envelope", p.seed, i)
		}
	}
	if len(p.q.spent) != 0 {
		p.t.Fatalf("seed %d: %d envelopes still kept for poisoning", p.seed, len(p.q.spent))
	}
}

func randEvents(r *rng.Source, max int) []proto.Event {
	evs := make([]proto.Event, r.Intn(max+1))
	for i := range evs {
		evs[i].ID = proto.EventID{Origin: proto.ProcessID(1 + r.Intn(50)), Seq: 1 + uint32(r.Intn(1000))}
		switch r.Intn(3) {
		case 0: // nil payload (an event assumed from a digest)
		case 1:
			evs[i].Payload = []byte{}
		default:
			evs[i].Payload = make([]byte, 1+r.Intn(40))
			for j := range evs[i].Payload {
				evs[i].Payload[j] = byte(r.Intn(256))
			}
		}
	}
	return evs
}

func randIDs(r *rng.Source, max int) []proto.EventID {
	ids := make([]proto.EventID, r.Intn(max+1))
	for i := range ids {
		ids[i] = proto.EventID{Origin: proto.ProcessID(1 + r.Intn(50)), Seq: 1 + uint32(r.Intn(1000))}
	}
	return ids
}

// TestInflightRingOracle compares every drained message with the
// per-envelope reference over long random sequences, on the round clock's
// bucket keys (arrival round = period + delay, one drain per period) and
// on the event clock's (arrival instant in ms, drained instant by instant
// inside the period, so an envelope can arrive in the period that sent it).
// A handful of engines cut a fresh gossip from the senders' arena every
// period; each emission goes to one to four targets with independent
// delays, so its envelopes land in up to four periods, and requests (cut
// from the arena, like a re-request, or fresh) and replies (fresh) are
// enqueued between them. The one *proto.Message every enqueue reads is
// overwritten with the next message before the next enqueue, the arena
// poisons every gossip it takes back, and the ring poisons every drained
// request and reply at its period's end.
func TestInflightRingOracle(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 60; seed++ {
		for _, eventKeys := range []bool{false, true} {
			ringOracle(t, seed, eventKeys)
		}
	}
}

func ringOracle(t *testing.T, seed uint64, eventKeys bool) {
	r := rng.New(seed)
	const periodMs = 10
	span := 1 + r.Intn(4) // rounds
	if eventKeys {
		span = 1 + r.Intn(35) // ms: up to three and a half periods
	}
	period := 1
	if eventKeys {
		period = periodMs
	}
	p := newRingPair(t, seed, span, period)
	engines := 1 + r.Intn(5)
	phase := make([]uint64, engines) // event clock: an engine's one tick instant within every period
	for i := range phase {
		phase[i] = uint64(r.Intn(periodMs))
	}
	periods := 100 + r.Intn(200)
	idle := 0 // after the run, drain until the ring is empty
	for period := uint64(1); idle <= span+1; period++ {
		running := period <= uint64(periods)
		if !running {
			idle++
		}
		instants := []uint64{period}
		if eventKeys {
			instants = instants[:0]
			for ms := (period-1)*periodMs + 1; ms <= period*periodMs; ms++ {
				instants = append(instants, ms)
			}
		}
		for _, now := range instants {
			p.drain(now)
			if !running {
				continue
			}
			at := func() uint64 { return now + 1 + uint64(r.Intn(span)) }
			for k := 0; k < engines; k++ {
				if eventKeys && now%periodMs != phase[k] {
					continue // one committed emission per engine per period
				}
				if r.Intn(4) == 0 {
					continue // crashed, or an empty view
				}
				want := proto.Gossip{
					From: proto.ProcessID(k + 1), Subs: []proto.ProcessID{proto.ProcessID(r.Intn(99)), 5},
					Events: randEvents(r, 6), Digest: randIDs(r, 12), DigestWatermarks: randIDs(r, 3),
				}
				if r.Intn(2) == 0 {
					want.Unsubs = []proto.Unsubscription{{Process: 3, Stamp: period}}
				}
				g := p.cutGossip(want)
				var m proto.Message // what every enqueue reads, rewritten after each
				for f := 1 + r.Intn(4); f > 0; f-- {
					m = proto.Message{Kind: proto.GossipMsg, From: want.From, To: proto.ProcessID(100 + f), Gossip: g}
					p.enqueue(m, at(), period)
					if r.Intn(5) == 0 {
						m = proto.Message{Kind: proto.RetransmitRequestMsg, From: 9, To: 8, Request: randIDs(r, 9)}
						if r.Intn(2) == 0 {
							m.Request = append(p.arena.IDs(len(m.Request))[:0], m.Request...)
						}
						p.enqueue(m, at(), period)
					}
					if r.Intn(5) == 0 {
						m = proto.Message{Kind: proto.RetransmitReplyMsg, From: 8, To: 9, Reply: randEvents(r, 5)}
						if r.Intn(2) == 0 {
							m.ReplyHops = make([]uint32, len(m.Reply))
						}
						p.enqueue(m, at(), period)
					}
				}
			}
		}
		p.endPeriod(instants[len(instants)-1])
	}
	p.quiescent()
}

// TestInflightSamePeriodArrival is the event clock's corner: an envelope
// drained in the period that sent it, while a later envelope of the same
// emission is still in the air. The period's end poisons what the drained
// envelope's request and reply hold, never the gossip: the later envelope
// must still carry the emission's contents when it arrives, a period on.
func TestInflightSamePeriodArrival(t *testing.T) {
	t.Parallel()
	p := newRingPair(t, 0, 20, 10)
	g := p.cutGossip(proto.Gossip{From: 1, Digest: []proto.EventID{{Origin: 4, Seq: 4}},
		Events: []proto.Event{{ID: proto.EventID{Origin: 4, Seq: 3}, Payload: []byte("kept")}}})
	m := proto.Message{Kind: proto.GossipMsg, From: 1, To: 2, Gossip: g}
	p.enqueue(m, 3, 1)
	p.drain(3)
	p.enqueue(m, 15, 1) // the same emission, after one of its envelopes arrived
	p.endPeriod(10)
	p.enqueue(proto.Message{Kind: proto.GossipMsg, From: 1, To: 3,
		Gossip: p.cutGossip(proto.Gossip{From: 1, Digest: []proto.EventID{{Origin: 5, Seq: 5}}})}, 16, 2)
	p.drain(15)
	p.drain(16)
	p.endPeriod(20)
	p.quiescent()
}
