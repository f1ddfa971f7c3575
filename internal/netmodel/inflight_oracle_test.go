package netmodel

import (
	"slices"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/stats"
)

// refSlot is the in-flight slot as it stood before envelopes shared a
// body: one deep copy of the whole message, gossip included, per envelope.
// copyEvents and copyMessage are kept verbatim (only the receiver renamed)
// because they define what a drained message must hold and are trivially
// right. Do not optimise them. The reference below never recycles a slot,
// so nothing it hands out can alias anything else.
//
// Mutations of the ring these tests were seen to catch: a body shared on
// the gossip pointer alone (the next period's emission then reads the last
// one's contents); a body shared on the period alone; the body poisoned, or
// returned to the pool, with its first drained envelope instead of its last
// (the later arrivals read sentinels, or the next emission's contents); the
// shared-emission cache kept after its body's last envelope drained (an
// envelope enqueued later in the period is recycled from under the ring);
// refs not counted for the first envelope, or spent bodies never returned
// (the quiescence count fails). One that only costs memory passes, as it
// should: a payload arena not rewound between uses.
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
// step, the way a harness does: enqueue under a period, drain by bucket
// key, poison and recycle once at the end of each period.
type ringPair struct {
	t       *testing.T
	seed    uint64
	q       *inflightQueue
	want    map[uint64][]parked // arrival key → reference copies, in enqueue order
	slots   map[*flSlot]bool    // every slot and body the queue ever loaned
	bodies  map[*flBody]bool
	ledgers [2]stats.NetStats // envelopes alternate between two ledgers
	next    int
}

func newRingPair(t *testing.T, seed uint64, span int) *ringPair {
	q := newInflight(span)
	q.check = true
	return &ringPair{t: t, seed: seed, q: q,
		want: map[uint64][]parked{}, slots: map[*flSlot]bool{}, bodies: map[*flBody]bool{}}
}

func (p *ringPair) enqueue(m proto.Message, at, period uint64) {
	ledger := &p.ledgers[p.next%len(p.ledgers)]
	p.next++
	p.q.enqueue(&m, ledger, at, period)
	p.want[at] = append(p.want[at], parked{new(refSlot).copyMessage(m), ledger})
	s := p.q.bucket(at).tail
	p.slots[s] = true
	if s.body != nil {
		p.bodies[s.body] = true
	}
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
		if !sameMessage(got[i], want[i].msg) {
			p.t.Fatalf("seed %d: drain(%d) message %d = %+v (gossip %+v), reference %+v (gossip %+v)",
				p.seed, at, i, got[i], got[i].Gossip, want[i].msg, want[i].msg.Gossip)
		}
		if ledgers[i] != want[i].ledger {
			p.t.Fatalf("seed %d: drain(%d) message %d came back with ledger %p, classified into %p", p.seed, at, i, ledgers[i], want[i].ledger)
		}
	}
}

func (p *ringPair) endPeriod() {
	p.q.poisonSpent()
	p.q.recycle()
}

// quiescent requires an empty ring with every slot and body back in its
// pool, once each, and no reference count left standing.
func (p *ringPair) quiescent() {
	p.t.Helper()
	if len(p.want) != 0 {
		p.t.Fatalf("seed %d: the test left %d arrival keys undrained", p.seed, len(p.want))
	}
	for i, b := range p.q.buckets {
		if b.head != nil || b.tail != nil {
			p.t.Fatalf("seed %d: bucket %d still holds a slot", p.seed, i)
		}
	}
	if len(p.q.spent) != 0 || len(p.q.spentBodies) != 0 {
		p.t.Fatalf("seed %d: %d slots and %d bodies still spent after recycle", p.seed, len(p.q.spent), len(p.q.spentBodies))
	}
	pooled := map[*flSlot]bool{}
	for _, s := range p.q.pool {
		if pooled[s] || !p.slots[s] || s.body != nil || s.ledger != nil {
			p.t.Fatalf("seed %d: slot %p pooled twice, never loaned, or still holding a body or a ledger", p.seed, s)
		}
		pooled[s] = true
	}
	free := map[*flBody]bool{}
	for _, b := range p.q.bodies {
		if free[b] || !p.bodies[b] || b.refs != 0 {
			p.t.Fatalf("seed %d: body %p pooled twice, never loaned, or with %d references", p.seed, b, b.refs)
		}
		free[b] = true
	}
	if len(pooled) != len(p.slots) || len(free) != len(p.bodies) {
		p.t.Fatalf("seed %d: %d of %d slots and %d of %d bodies are back in their pools",
			p.seed, len(pooled), len(p.slots), len(free), len(p.bodies))
	}
}

func randEvents(r *rng.Source, max int) []proto.Event {
	evs := make([]proto.Event, r.Intn(max+1))
	for i := range evs {
		evs[i].ID = proto.EventID{Origin: proto.ProcessID(1 + r.Intn(50)), Seq: 1 + uint64(r.Intn(1000))}
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
		ids[i] = proto.EventID{Origin: proto.ProcessID(1 + r.Intn(50)), Seq: 1 + uint64(r.Intn(1000))}
	}
	return ids
}

// fillGossip writes want's contents into the emission buffer g the way an
// engine in emission-reuse mode does: same pointer, same backing arrays.
func fillGossip(g *proto.Gossip, want proto.Gossip) {
	g.From = want.From
	g.Subs = append(g.Subs[:0], want.Subs...)
	g.Unsubs = append(g.Unsubs[:0], want.Unsubs...)
	g.Digest = append(g.Digest[:0], want.Digest...)
	g.DigestWatermarks = append(g.DigestWatermarks[:0], want.DigestWatermarks...)
	g.Events = g.Events[:0]
	for _, e := range want.Events {
		g.Events = append(g.Events, e.Clone())
	}
}

// scribble overwrites everything a message references, as the next tick's
// compose or the next response span will.
func scribble(m proto.Message) {
	if m.Gossip != nil {
		for _, e := range m.Gossip.Events {
			for j := range e.Payload {
				e.Payload[j] ^= 0xa5
			}
		}
		PoisonGossip(m.Gossip)
	}
	for i := range m.Request {
		m.Request[i] = proto.EventID{Origin: 7777, Seq: 7777}
	}
	for i := range m.Reply {
		for j := range m.Reply[i].Payload {
			m.Reply[i].Payload[j] ^= 0xa5
		}
		m.Reply[i].ID = proto.EventID{Origin: 7777, Seq: 7777}
	}
	for i := range m.ReplyHops {
		m.ReplyHops[i] = 7777
	}
}

// TestInflightRingOracle compares every drained message with the
// per-envelope reference over long random sequences, on the round clock's
// bucket keys (arrival round = period + delay, one drain per period) and
// on the event clock's (arrival instant in ms, drained instant by instant
// inside the period, so an envelope can arrive in the period that sent it).
// A handful of engines re-emit through the same gossip pointer every
// period with fresh contents; each emission goes to one to four targets
// with independent delays, so its envelopes land in up to four periods,
// and requests and replies are enqueued between them. The source of every
// message is scribbled as soon as its enqueue returns (a gossip's buffer is
// rewritten with the emission's contents before the next envelope, as the
// engine would have left it), and spent storage is poisoned every period.
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
	p := newRingPair(t, seed, span)
	engines := make([]*proto.Gossip, 1+r.Intn(5))
	phase := make([]uint64, len(engines)) // event clock: an engine's one tick instant within every period
	for i := range engines {
		engines[i] = new(proto.Gossip)
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
			for k, g := range engines {
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
				for f := 1 + r.Intn(4); f > 0; f-- {
					fillGossip(g, want)
					m := proto.Message{Kind: proto.GossipMsg, From: want.From, To: proto.ProcessID(100 + f), Gossip: g}
					p.enqueue(m, at(), period)
					scribble(m)
					if r.Intn(5) == 0 {
						req := proto.Message{Kind: proto.RetransmitRequestMsg, From: 9, To: 8, Request: randIDs(r, 9)}
						p.enqueue(req, at(), period)
						scribble(req)
					}
					if r.Intn(5) == 0 {
						rep := proto.Message{Kind: proto.RetransmitReplyMsg, From: 8, To: 9, Reply: randEvents(r, 5)}
						if r.Intn(2) == 0 {
							rep.ReplyHops = make([]uint32, len(rep.Reply))
						}
						p.enqueue(rep, at(), period)
						scribble(rep)
					}
				}
			}
		}
		p.endPeriod()
	}
	p.quiescent()
}

// TestInflightBodyLifetime walks one body by hand: three envelopes of one
// emission arrive in three different periods, and the body must outlive the
// first two recycles — with poisoning on — and return to its pool with the
// third. Meanwhile the same gossip pointer emits the next period's
// different contents, which must get a body of their own.
func TestInflightBodyLifetime(t *testing.T) {
	t.Parallel()
	p := newRingPair(t, 0, 3)
	g := new(proto.Gossip)
	first := proto.Gossip{From: 1, Subs: []proto.ProcessID{1, 2}, Digest: []proto.EventID{{Origin: 1, Seq: 1}},
		Events: []proto.Event{{ID: proto.EventID{Origin: 1, Seq: 2}, Payload: []byte("first")}}}
	second := proto.Gossip{From: 1, Subs: []proto.ProcessID{1, 3, 4}, Digest: []proto.EventID{{Origin: 1, Seq: 2}},
		Events: []proto.Event{{ID: proto.EventID{Origin: 1, Seq: 3}, Payload: []byte("second!")}}}

	fillGossip(g, first)
	for d := uint64(1); d <= 3; d++ {
		p.enqueue(proto.Message{Kind: proto.GossipMsg, From: 1, To: proto.ProcessID(10 + d), Gossip: g}, 1+d, 1)
	}
	if len(p.bodies) != 1 {
		t.Fatalf("three envelopes of one emission took %d bodies, want 1", len(p.bodies))
	}
	p.endPeriod()

	p.drain(2) // period 2: the first envelope arrives
	fillGossip(g, second)
	p.enqueue(proto.Message{Kind: proto.GossipMsg, From: 1, To: 20, Gossip: g}, 3, 2)
	if len(p.bodies) != 2 {
		t.Fatalf("the next period's emission through the same pointer shares the old body (%d bodies)", len(p.bodies))
	}
	scribble(proto.Message{Gossip: g})
	p.endPeriod()
	if len(p.q.bodies) != 0 {
		t.Fatalf("a body went back to the pool while envelopes in the ring still carry it")
	}

	p.drain(3) // period 3: the second envelope, and the second emission's only one
	p.endPeriod()
	if len(p.q.bodies) != 1 {
		t.Fatalf("%d bodies pooled after period 3, want the second emission's", len(p.q.bodies))
	}

	p.drain(4) // period 4: the last envelope of the first emission
	if got := p.q.spentBodies; len(got) != 1 || got[0].refs != 0 {
		t.Fatalf("the last envelope's drain left %d spent bodies", len(got))
	}
	p.endPeriod()
	p.quiescent()
}

// TestInflightSamePeriodArrival is the event clock's corner: an envelope
// drained in the period that sent it releases the body before the period
// ends, and a later envelope of the same emission must then copy afresh
// rather than revive a body already on its way back to the pool.
func TestInflightSamePeriodArrival(t *testing.T) {
	t.Parallel()
	p := newRingPair(t, 0, 20)
	g := &proto.Gossip{From: 1, Digest: []proto.EventID{{Origin: 4, Seq: 4}}}
	m := proto.Message{Kind: proto.GossipMsg, From: 1, To: 2, Gossip: g}
	p.enqueue(m, 3, 1)
	p.drain(3)
	p.enqueue(m, 15, 1) // same pointer, same period, the first body spent
	p.endPeriod()
	g.Digest[0] = proto.EventID{Origin: 5, Seq: 5}
	p.enqueue(m, 16, 2)
	p.drain(15)
	p.drain(16)
	p.endPeriod()
	p.quiescent()
	if len(p.bodies) != 2 {
		t.Fatalf("%d bodies in all, want 2: the spent one must not be revived, and is reused once pooled", len(p.bodies))
	}
}

// TestInflightSharingCheck is the runtime side of the same invariant: with
// the check on (the poisoning debug mode), a sender that rewrites its *proto.Gossip
// between two messages of one period panics at the second enqueue instead
// of having it silently carry the first one's contents.
func TestInflightSharingCheck(t *testing.T) {
	t.Parallel()
	q := newInflight(8)
	q.check = true
	g := &proto.Gossip{From: 1, Digest: []proto.EventID{{Origin: 4, Seq: 4}}}
	m := proto.Message{Kind: proto.GossipMsg, From: 1, To: 2, Gossip: g}
	var ledger stats.NetStats
	q.enqueue(&m, &ledger, 3, 1)
	q.enqueue(&m, &ledger, 4, 1) // unchanged: shares
	g.Digest[0].Seq = 5
	defer func() {
		if recover() == nil {
			t.Fatal("a gossip rewritten within its period was shared without a panic")
		}
	}()
	q.enqueue(&m, &ledger, 5, 1)
}
