package sim

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/event"
	"repro/internal/proto"
)

// This file implements the deterministic in-flight queue behind the
// network delay model: messages whose link delay is nonzero leave the
// current instant's barrier and are parked until their arrival instant. The
// queue is a ring of future-instant buckets — bucket (t mod span+1) holds
// exactly the messages arriving at instant t — so enqueue and drain are
// O(1) lookups and the whole structure is pre-sized once. Beside the ring
// sits the cluster's timer wheel (internal/event), which holds nothing but
// arrival markers, one per pending instant: it is how the queue answers
// "which instant comes due next" (due) without scanning buckets. On the
// round clock a period is one instant and the ring is keyed by round.
//
// Determinism. Messages are enqueued from classify, which every schedule
// (synchronous and async, on any shard count) calls in the same
// deterministic order — the same merge order the span merge establishes
// for same-round responses. A bucket therefore holds its messages in an
// order that is a pure function of the simulation state, and draining it
// front to back at the top of the arrival round reproduces that order
// whatever the shard count: the delayed path inherits the bit-for-bit
// guarantee instead of needing its own.
//
// Allocation. The engines recycle their emission buffers (emission-reuse
// mode), so a message outlives its round only if the queue deep-copies it.
// The copy has two parts. An envelope (flSlot) is per message: addressing,
// and the request or reply a retransmission carries. A body (flBody) is per
// gossip emission: the F envelopes one committed tick sends into the ring
// point at one copy of its gossip, which receivers only read. Both live in
// queue-wide pools: enqueue loans them out, drain parks an envelope on the
// spent list — and its body too, once no envelope still in the ring points
// at it — and recycle (called once per round, after every consumer is done
// with the round's arrivals) returns them. Pooling matters on the event
// clock, where arrival instants are not periodic modulo the ring size:
// per-bucket storage would keep hitting fresh per-bucket occupancy maxima
// forever, while the pools stabilize at the global high-water mark. They
// grow during warmup; in steady state enqueue, drain, poison, and recycle
// touch no allocator (the steady-delayed-round and steady-event-round
// bench entries and TestDelayedRoundAllocs / TestEventRoundAllocs gate
// this).
//
// Which envelopes share. An engine in emission-reuse mode rewrites the same
// *proto.Gossip every tick, so the pointer alone does not name a gossip's
// contents; the pointer and the period do, because every schedule commits
// at most one emission per engine per period (an aborted speculative
// compose is never classified, and TestOneEmissionPerPeriod pins it on both
// step functions and both clocks). enqueue therefore shares a body only with the envelope
// enqueued just before it, and only when both the gossip pointer and the
// period match. Nothing stops a foreign sim.Process from rewriting one
// *proto.Gossip between two messages of a tick, or a future schedule from
// committing twice; under PoisonRecycled (inflightQueue.check) enqueue
// compares the incoming gossip with the body it is about to share and
// panics on a difference, so the invariant is checked wherever poisoning is.

// flBody is the recycled deep copy of one gossip emission.
type flBody struct {
	gossip  proto.Gossip
	payload []byte // flat arena for the events' payload bytes
	refs    int    // envelopes still in the ring that carry this body
}

// flSlot is the recycled storage for one in-flight envelope, intrusively
// linked into its arrival bucket's list while loaned out.
type flSlot struct {
	msg     proto.Message // slot- and body-backed envelope, valid while loaned
	next    *flSlot
	body    *flBody // msg.Gossip's storage; nil for a request or reply
	request []proto.EventID
	reply   []proto.Event
	hops    []uint32
	payload []byte // flat arena for the reply's payload bytes
}

// copyEvents deep-copies src into dst, parking payload bytes in a fresh
// use of arena, which it first sizes for all of them so that the appends
// can never reallocate it (sub-slices handed out earlier stay valid).
func copyEvents(arena []byte, dst, src []proto.Event) ([]byte, []proto.Event) {
	need := 0
	for _, e := range src {
		need += len(e.Payload)
	}
	if cap(arena) < need {
		arena = make([]byte, 0, need)
	}
	arena = arena[:0]
	for _, e := range src {
		out := proto.Event{ID: e.ID}
		if e.Payload != nil {
			start := len(arena)
			arena = append(arena, e.Payload...)
			out.Payload = arena[start:len(arena):len(arena)]
		}
		dst = append(dst, out)
	}
	return arena, dst
}

// copyGossip deep-copies g into the body's recycled storage.
func (b *flBody) copyGossip(g *proto.Gossip) {
	dst := &b.gossip
	dst.From = g.From
	dst.Subs = append(dst.Subs[:0], g.Subs...)
	dst.Unsubs = append(dst.Unsubs[:0], g.Unsubs...)
	dst.Digest = append(dst.Digest[:0], g.Digest...)
	dst.DigestWatermarks = append(dst.DigestWatermarks[:0], g.DigestWatermarks...)
	b.payload, dst.Events = copyEvents(b.payload, dst.Events[:0], g.Events)
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

// copyEnvelope makes s.msg a deep copy of everything of m but its gossip,
// backed by the slot's recycled storage. Nothing in it aliases caller-owned
// memory, so the original (an engine's recycled emission scratch, a
// response span, ...) is free to be rewritten the moment the call returns.
func (s *flSlot) copyEnvelope(m *proto.Message) {
	s.msg = proto.Message{Kind: m.Kind, From: m.From, To: m.To, Subscriber: m.Subscriber}
	if m.Request != nil {
		s.request = append(s.request[:0], m.Request...)
		s.msg.Request = s.request
	}
	if m.Reply != nil {
		s.payload, s.reply = copyEvents(s.payload, s.reply[:0], m.Reply)
		s.msg.Reply = s.reply
	}
	if m.ReplyHops != nil {
		s.hops = append(s.hops[:0], m.ReplyHops...)
		s.msg.ReplyHops = s.hops
	}
}

// flBucket holds the messages arriving at one future instant as an
// intrusive list of loaned slots in enqueue (classify) order.
type flBucket struct {
	head, tail *flSlot
}

// inflightQueue is the ring of future-instant buckets, the wheel of their
// arrival markers, and the queue-wide slot and body pools. A nil queue is
// the zero-delay network: nothing is ever pending in it.
type inflightQueue struct {
	buckets     []flBucket
	wheel       *event.Wheel // one marker per pending instant: per non-empty bucket
	pool        []*flSlot    // free slots, LIFO
	spent       []*flSlot    // drained this round; recycled at end of round
	bodies      []*flBody    // free bodies, LIFO
	spentBodies []*flBody    // last envelope drained this round; recycled with spent

	// The emission the last gossip envelope belonged to, and its body while
	// an envelope in the ring still carries it.
	lastGossip *proto.Gossip
	lastPeriod uint64
	lastBody   *flBody

	// check (PoisonRecycled) makes enqueue verify every sharing decision.
	check bool
}

// newInflight creates a ring covering delays up to span instants.
func newInflight(span int) *inflightQueue {
	return &inflightQueue{buckets: make([]flBucket, span+1), wheel: event.NewWheel()}
}

// bucket returns the bucket of arrival instant at.
func (q *inflightQueue) bucket(at uint64) *flBucket {
	return &q.buckets[at%uint64(len(q.buckets))]
}

// due reports the earliest instant with arrivals pending, if it is at or
// before limit.
func (q *inflightQueue) due(limit uint64) (uint64, bool) {
	if q == nil {
		return 0, false
	}
	at, ok := q.wheel.Next()
	return at, ok && at <= limit
}

// park advances the wheel to instant at, popping the marker due there if
// there is one. Callers walk pending instants in order (due), so nothing
// pending predates at. Every period ends with the wheel parked at its
// boundary: a marker is scheduled relative to the wheel's own now, which
// must not fall a wheel horizon behind the cluster's through a long stretch
// without delayed traffic.
func (q *inflightQueue) park(at uint64) {
	if q != nil && q.wheel.Now() < at {
		q.wheel.PopAt(at)
	}
}

// enqueue parks a deep copy of m, emitted in period period, for arrival at
// instant at, and schedules the instant's marker with the first message
// into its bucket (buckets are injective over the ring's span). The caller
// guarantees now < at <= now+span, so the target bucket can never be the
// one currently draining, and the wheel never runs ahead of the caller's
// now.
func (q *inflightQueue) enqueue(m *proto.Message, at, period uint64) {
	var s *flSlot
	if n := len(q.pool) - 1; n >= 0 {
		s, q.pool = q.pool[n], q.pool[:n]
	} else {
		s = new(flSlot) // warmup growth only
	}
	s.copyEnvelope(m)
	if g := m.Gossip; g != nil {
		b := q.lastBody
		if b == nil || g != q.lastGossip || period != q.lastPeriod {
			if n := len(q.bodies) - 1; n >= 0 {
				b, q.bodies = q.bodies[n], q.bodies[:n]
			} else {
				b = new(flBody) // warmup growth only
			}
			b.copyGossip(g)
			q.lastGossip, q.lastPeriod, q.lastBody = g, period, b
		} else if q.check && !sameGossip(&b.gossip, g) {
			panic(fmt.Sprintf("sim: process %d sent two different gossips through one *proto.Gossip in period %d; the in-flight ring shares one copy per emission", m.From, period))
		}
		b.refs++
		s.body = b
		s.msg.Gossip = &b.gossip
	}
	s.next = nil
	b := q.bucket(at)
	if b.tail == nil {
		b.head = s
		q.wheel.Schedule(at, 0, 0) // markers are the wheel's one timer kind
	} else {
		b.tail.next = s
	}
	b.tail = s
}

// drain advances the queue to instant now (park) and appends the messages
// arriving there to dst, in enqueue order, emptying the bucket and parking
// its slots — and every body whose last envelope this is — on the spent
// lists. The storage behind the messages stays valid until recycle runs at
// the end of the period; consumers must finish with it within the period,
// exactly like any other recycled buffer. PoisonRecycled enforces that by
// poisoning the spent storage at the end of the period.
func (q *inflightQueue) drain(now uint64, dst []proto.Message) []proto.Message {
	if q == nil {
		return dst
	}
	q.park(now)
	b := q.bucket(now)
	for s := b.head; s != nil; s = s.next {
		dst = append(dst, s.msg)
		q.spent = append(q.spent, s)
		if body := s.body; body != nil {
			s.body = nil
			if body.refs--; body.refs == 0 {
				q.spentBodies = append(q.spentBodies, body)
				if body == q.lastBody {
					q.lastBody = nil // a later envelope of the emission copies afresh
				}
			}
		}
	}
	b.head, b.tail = nil, nil
	return dst
}

// recycle returns the period's spent slots and bodies to their pools.
// RunRound calls it exactly once per period, after the last consumer of the
// period's arrivals (and any poisoning) is done.
func (q *inflightQueue) recycle() {
	if q == nil {
		return
	}
	q.pool = append(q.pool, q.spent...)
	q.spent = q.spent[:0]
	q.bodies = append(q.bodies, q.spentBodies...)
	q.spentBodies = q.spentBodies[:0]
}

// poisonSpent overwrites the storage of every slot and body spent this
// round with sentinel values (see poisonMessages): any consumer still
// holding an arrival past its round diverges loudly instead of reading
// stale data. Loaned storage is untouched — its contents are live, and a
// body stays loaned for as long as one envelope in the ring carries it.
func (q *inflightQueue) poisonSpent() {
	if q == nil {
		return
	}
	for _, b := range q.spentBodies {
		poisonGossip(&b.gossip)
	}
	for _, s := range q.spent {
		for i := range s.request {
			s.request[i] = poisonEventID
		}
		for i := range s.reply {
			s.reply[i] = proto.Event{ID: poisonEventID}
		}
		for i := range s.hops {
			s.hops[i] = ^uint32(0)
		}
	}
}
