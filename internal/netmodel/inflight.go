package netmodel

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/event"
	"repro/internal/pool"
	"repro/internal/proto"
	"repro/internal/stats"
)

// This file implements the deterministic in-flight queue behind the delay
// model: a ring of future-instant buckets — bucket (t mod span+1) holds
// exactly the messages arriving at instant t — pre-sized once, beside a
// timer wheel (internal/event) that holds one arrival marker per pending
// instant, which is how due names the next instant without scanning
// buckets. Classify enqueues in the harness's deterministic order and drain
// empties a bucket front to back, so the delayed path inherits the
// harness's determinism.
//
// Storage. Engines cut their emissions from arenas (proto.EmitArena) that
// every harness resets at the end of the period, so the queue deep-copies
// what it parks, in two parts: an envelope (flSlot) per message —
// addressing, ledger, a retransmission's request or reply — and a body
// (flBody) per gossip emission, shared by the F envelopes one committed tick
// sends into the ring; receivers only read it. Period p copies into
// generation p mod G, a set of pool.Bump slabs, G = ceil(span / period
// length) + 1: a message sent in period p arrives by period p + G - 1,
// whose end resets the generation for period p + G. The ring keeps what its
// busiest periods needed, not its largest message, and allocates nothing in
// a steady state.
//
// Which envelopes share. A tick cuts a fresh *proto.Gossip from an arena
// that is reset only when the period ends, so within a period a pointer is
// unique to one emission; the next period cuts from the same storage again,
// so the pointer and the period together name a gossip's contents. enqueue
// therefore shares a body only with the envelope enqueued just before it,
// and only when both match. In the poisoning debug mode
// (inflightQueue.check) enqueue compares the gossip with the body it is
// about to share and panics on a difference.

// flBody is the deep copy of one gossip emission.
type flBody struct {
	gossip proto.Gossip
	refs   int // envelopes still in the ring that carry this body
}

// flSlot is one envelope, intrusively linked into its arrival bucket.
type flSlot struct {
	msg    proto.Message   // generation-backed envelope
	ledger *stats.NetStats // the ledger msg is counted in
	next   *flSlot
	body   *flBody // msg.Gossip's storage; nil for a request or reply
}

// generation holds everything the ring copies in one period.
type generation struct {
	slots   pool.Bump[flSlot]
	bodies  pool.Bump[flBody]
	pids    pool.Bump[proto.ProcessID]
	unsubs  pool.Bump[proto.Unsubscription]
	ids     pool.Bump[proto.EventID]
	events  pool.Bump[proto.Event]
	hops    pool.Bump[uint32]
	payload pool.Bump[byte]
}

func (g *generation) reset() {
	for _, b := range [...]interface{ Reset() }{&g.slots, &g.bodies, &g.pids, &g.unsubs, &g.ids, &g.events, &g.hops, &g.payload} {
		b.Reset()
	}
}

// copyRun copies src into a run of b; nil stays nil.
func copyRun[T any](b *pool.Bump[T], src []T) []T {
	if src == nil {
		return nil
	}
	dst := b.Cut(len(src))
	copy(dst, src)
	return dst
}

// copyEvents deep-copies src, its payload bytes into one run.
func (g *generation) copyEvents(src []proto.Event) []proto.Event {
	if src == nil {
		return nil
	}
	need := 0
	for _, e := range src {
		need += len(e.Payload)
	}
	payload, dst := g.payload.Cut(need), g.events.Cut(len(src))
	for i, e := range src {
		dst[i].ID = e.ID
		if e.Payload != nil {
			n := copy(payload, e.Payload)
			dst[i].Payload, payload = payload[:n:n], payload[n:]
		}
	}
	return dst
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

// flBucket holds the messages arriving at one future instant as an
// intrusive list of envelopes in enqueue (Classify) order.
type flBucket struct {
	head, tail *flSlot
}

// inflightQueue is the ring of future-instant buckets, the wheel of their
// arrival markers, and the generations their storage is cut from. A nil
// queue is the zero-delay network: nothing is ever pending in it.
type inflightQueue struct {
	buckets   []flBucket
	wheel     *event.Wheel // one marker per pending instant: per non-empty bucket
	gens      []generation // period p copies into gens[p mod len(gens)]
	periodLen uint64       // instants per period

	// The emission the last gossip envelope belonged to, and its body.
	lastGossip *proto.Gossip
	lastPeriod uint64
	lastBody   *flBody

	// check (PoisonRecycled) makes enqueue verify every sharing decision,
	// and drain keep the period's envelopes for poisonSpent.
	check bool
	spent []*flSlot
}

// newInflight creates a ring covering delays up to span instants, on a clock
// of periodLen instants per period.
func newInflight(span, periodLen int) *inflightQueue {
	return &inflightQueue{buckets: make([]flBucket, span+1), wheel: event.NewWheel(),
		gens: make([]generation, (span+periodLen-1)/periodLen+1), periodLen: uint64(periodLen)}
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

// enqueue parks a deep copy of m (the caller may rewrite m once it returns),
// emitted in period period and counted in ledger, for arrival at instant at,
// scheduling the instant's marker with the first message into its bucket
// (buckets are injective over the ring's span). The caller guarantees
// now < at <= now+span, so the target bucket is never the one draining.
func (q *inflightQueue) enqueue(m *proto.Message, ledger *stats.NetStats, at, period uint64) {
	gen := &q.gens[period%uint64(len(q.gens))]
	s := &gen.slots.Cut(1)[0]
	s.msg = proto.Message{Kind: m.Kind, From: m.From, To: m.To, Subscriber: m.Subscriber,
		Request: copyRun(&gen.ids, m.Request), Reply: gen.copyEvents(m.Reply), ReplyHops: copyRun(&gen.hops, m.ReplyHops)}
	s.ledger = ledger
	if g := m.Gossip; g != nil {
		b := q.lastBody
		if b == nil || g != q.lastGossip || period != q.lastPeriod {
			b = &gen.bodies.Cut(1)[0]
			b.gossip = proto.Gossip{From: g.From, Subs: copyRun(&gen.pids, g.Subs), Unsubs: copyRun(&gen.unsubs, g.Unsubs),
				Events: gen.copyEvents(g.Events), Digest: copyRun(&gen.ids, g.Digest), DigestWatermarks: copyRun(&gen.ids, g.DigestWatermarks)}
			q.lastGossip, q.lastPeriod, q.lastBody = g, period, b
		} else if q.check && !sameGossip(&b.gossip, g) {
			panic(fmt.Sprintf("netmodel: process %d sent two different gossips through one *proto.Gossip in period %d; the in-flight ring shares one copy per emission", m.From, period))
		}
		b.refs++
		s.body = b
		s.msg.Gossip = &b.gossip
	}
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
// arriving there to dst and their ledgers to ledgers, in enqueue order,
// emptying the bucket. The storage behind the messages stays valid until
// the period ends; consumers must finish with it within the period, exactly
// like any other recycled buffer, and the poisoning debug mode enforces it.
func (q *inflightQueue) drain(now uint64, dst []proto.Message, ledgers []*stats.NetStats) ([]proto.Message, []*stats.NetStats) {
	if q == nil {
		return dst, ledgers
	}
	q.park(now)
	b := q.bucket(now)
	for s := b.head; s != nil; s = s.next {
		dst = append(dst, s.msg)
		ledgers = append(ledgers, s.ledger)
		if s.body != nil {
			s.body.refs--
		}
		if q.check {
			q.spent = append(q.spent, s)
		}
	}
	b.head, b.tail = nil, nil
	return dst, ledgers
}

// endPeriod closes the period whose last instant is at, once every consumer
// of its arrivals is done: it poisons what the period spent (in the debug
// mode), parks the wheel at at, and resets the generation the next period
// copies into — every message of the period that last used it has arrived
// by now.
func (q *inflightQueue) endPeriod(at uint64) {
	if q.check {
		q.poisonSpent()
	}
	q.park(at)
	q.gens[((at+q.periodLen-1)/q.periodLen+1)%uint64(len(q.gens))].reset()
}

// poisonSpent overwrites the storage of every envelope drained this period,
// and of its body once no envelope in the ring carries it, with sentinel
// values (PoisonGossip): any consumer still holding an arrival past its
// period diverges loudly instead of reading stale data.
func (q *inflightQueue) poisonSpent() {
	for _, s := range q.spent {
		if s.body != nil && s.body.refs == 0 {
			PoisonGossip(&s.body.gossip)
		}
		fill(s.msg.Request, SentinelEventID)
		fill(s.msg.Reply, proto.Event{ID: SentinelEventID})
		fill(s.msg.ReplyHops, ^uint32(0))
	}
	q.spent = q.spent[:0]
}

// Sentinel marks poisoned buffer contents: no real process carries the
// all-ones id, so any late consumer of a recycled buffer surfaces as a loud
// divergence from a reference run instead of a silent heisenbug.
const Sentinel = proto.ProcessID(^uint64(0))

// SentinelEventID marks poisoned event slots.
var SentinelEventID = proto.EventID{Origin: Sentinel, Seq: ^uint64(0)}

// PoisonGossip overwrites a gossip's contents with sentinels.
func PoisonGossip(g *proto.Gossip) {
	g.From = Sentinel
	fill(g.Subs, Sentinel)
	fill(g.Unsubs, proto.Unsubscription{Process: Sentinel, Stamp: ^uint64(0)})
	fill(g.Events, proto.Event{ID: SentinelEventID})
	fill(g.Digest, SentinelEventID)
	fill(g.DigestWatermarks, SentinelEventID)
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}
