package netmodel

import (
	"repro/internal/event"
	"repro/internal/pool"
	"repro/internal/proto"
	"repro/internal/stats"
)

// This file implements the deterministic in-flight queue behind the delay
// model: a ring of future-instant buckets — bucket (t mod span+1) holds
// exactly the messages arriving at instant t — pre-sized once, beside the
// event scheduler (internal/event, a binary min-heap of timers) that holds
// one arrival marker per pending instant, which is how due names the next
// instant without scanning
// buckets. Classify enqueues in the harness's deterministic order and drain
// empties a bucket front to back, so the delayed path inherits the
// harness's determinism.
//
// Storage. The queue parks each message as an envelope (flSlot) — the
// message by value, beside the ledger it is counted in — and copies nothing
// it references. Period p's envelopes are cut from generation p mod G, a
// pool.Bump slab, G = ceil(span / period length) + 1: a message sent in
// period p arrives by period p + G - 1, whose end resets the generation for
// period p + G. The ring keeps what its busiest periods needed, not its
// largest message, and allocates nothing in a steady state.
//
// Ownership. Whatever a message classified in period p references — its
// gossip, the gossip's lists and payloads, a retransmission's request, reply
// and hops — belongs to its sender and must stay unchanged until period
// p + G - 1 ends (Model.Generations): engines cut gossips and re-requests
// from a proto.EmitArena of G generations, and a pull's request and reply
// are fresh heap slices that nothing rewrites.

// flSlot is one envelope, intrusively linked into its arrival bucket.
type flSlot struct {
	msg    proto.Message   // the message as Classify received it
	ledger *stats.NetStats // the ledger msg is counted in
	next   *flSlot
}

// flBucket holds the messages arriving at one future instant as an
// intrusive list of envelopes in enqueue (Classify) order.
type flBucket struct {
	head, tail *flSlot
}

// inflightQueue is the ring of future-instant buckets, the scheduler of
// their arrival markers, and the generations their storage is cut from. A nil
// queue is the zero-delay network: nothing is ever pending in it.
type inflightQueue struct {
	buckets   []flBucket
	wheel     *event.Wheel        // one marker per pending instant: per non-empty bucket
	gens      []pool.Bump[flSlot] // period p's envelopes are cut from gens[p mod len(gens)]
	periodLen uint64              // instants per period

	// check (PoisonRecycled) makes drain keep the period's envelopes for
	// poisonSpent.
	check bool
	spent []*flSlot
}

// newInflight creates a ring covering delays up to span instants, on a clock
// of periodLen instants per period.
func newInflight(span, periodLen int) *inflightQueue {
	return &inflightQueue{buckets: make([]flBucket, span+1), wheel: event.NewWheel(),
		gens: make([]pool.Bump[flSlot], (span+periodLen-1)/periodLen+1), periodLen: uint64(periodLen)}
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

// park advances the scheduler to instant at, popping the marker due there
// if there is one. Callers walk pending instants in order (due), so nothing
// pending predates at. Every period ends with the scheduler parked at its
// boundary: a marker is scheduled relative to the scheduler's own now, which
// must not fall the scheduler's horizon (2^24 instants) behind the
// cluster's through a long stretch without delayed traffic.
func (q *inflightQueue) park(at uint64) {
	if q != nil && q.wheel.Now() < at {
		q.wheel.PopAt(at)
	}
}

// enqueue parks m, emitted in period period and counted in ledger, for
// arrival at instant at, scheduling the instant's marker with the first
// message into its bucket (buckets are injective over the ring's span). The
// caller may reuse *m once it returns, but not what m references (see
// Ownership). The caller guarantees now < at <= now+span, so the target
// bucket is never the one draining.
func (q *inflightQueue) enqueue(m *proto.Message, ledger *stats.NetStats, at, period uint64) {
	s := &q.gens[period%uint64(len(q.gens))].Cut(1)[0]
	s.msg, s.ledger = *m, ledger
	b := q.bucket(at)
	if b.tail == nil {
		b.head = s
		q.wheel.Schedule(at, 0, 0) // markers are the scheduler's one timer kind
	} else {
		b.tail.next = s
	}
	b.tail = s
}

// drain advances the queue to instant now (park) and appends the messages
// arriving there to dst and their ledgers to ledgers, in enqueue order,
// emptying the bucket. Consumers must finish with what the messages
// reference within the period: a request's, a reply's and its hops' storage
// is poisoned at the period's end in the debug mode, and a gossip goes back
// to its sender's arena within G - 1 periods.
func (q *inflightQueue) drain(now uint64, dst []proto.Message, ledgers []*stats.NetStats) ([]proto.Message, []*stats.NetStats) {
	if q == nil {
		return dst, ledgers
	}
	q.park(now)
	b := q.bucket(now)
	for s := b.head; s != nil; s = s.next {
		dst = append(dst, s.msg)
		ledgers = append(ledgers, s.ledger)
		if q.check {
			q.spent = append(q.spent, s)
		}
	}
	b.head, b.tail = nil, nil
	return dst, ledgers
}

// endPeriod closes the period whose last instant is at, once every consumer
// of its arrivals is done: it poisons what the period spent (in the debug
// mode), parks the scheduler at at, and resets the generation the next period
// parks into — every message of the period that last used it has arrived
// by now.
func (q *inflightQueue) endPeriod(at uint64) {
	if q.check {
		q.poisonSpent()
	}
	q.park(at)
	q.gens[((at+q.periodLen-1)/q.periodLen+1)%uint64(len(q.gens))].Reset()
}

// poisonSpent overwrites the request, reply and hops of every envelope
// drained this period with sentinel values: any consumer still holding an
// arrival past its period diverges loudly instead of reading stale data.
// They are the one message's, so nothing else reads them. A gossip is
// shared with envelopes still in the air; its sender's arena poisons it
// when it takes it back (proto.EmitArena.SetPoison).
func (q *inflightQueue) poisonSpent() {
	for _, s := range q.spent {
		fill(s.msg.Request, SentinelEventID)
		fill(s.msg.Reply, proto.Event{ID: SentinelEventID})
		fill(s.msg.ReplyHops, ^uint32(0))
	}
	q.spent = q.spent[:0]
}

// Sentinel marks poisoned buffer contents: no simulated process carries the
// all-ones id (the simulator numbers processes from 1), so any late consumer of a recycled buffer surfaces as a loud
// divergence from a reference run instead of a silent heisenbug.
const Sentinel = ^proto.ProcessID(0)

// SentinelEventID marks poisoned event slots.
var SentinelEventID = proto.EventID{Origin: Sentinel, Seq: proto.MaxSeq}

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
