package core

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/proto"
	"repro/internal/rng"
)

func newEngine(t *testing.T, self proto.ProcessID, mutate func(*Config)) (*Engine, *[]proto.Event) {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	var delivered []proto.Event
	e, err := New(self, cfg, func(ev proto.Event) { delivered = append(delivered, ev) }, rng.New(uint64(self)*7+1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e, &delivered
}

func gossipTo(e *Engine, g proto.Gossip, now uint64) []proto.Message {
	return e.HandleMessageAppend(proto.Message{Kind: proto.GossipMsg, From: g.From, To: e.Self(), Gossip: &g}, now, nil)
}

// publish is Publish for a test far from the last sequence number.
func publish(t testing.TB, e *Engine, payload []byte) proto.Event {
	t.Helper()
	ev, err := e.Publish(payload)
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	return ev
}

func TestConfigValidate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero fanout", func(c *Config) { c.Fanout = 0 }},
		{"fanout exceeds view", func(c *Config) { c.Fanout = c.Membership.MaxView + 1 }},
		{"no events room", func(c *Config) { c.MaxEvents = 0 }},
		{"no ids room", func(c *Config) { c.MaxEventIDs = 0 }},
		{"assume and retransmit", func(c *Config) { c.AssumeFromDigest = true; c.Retransmit = true }},
		{"bad membership", func(c *Config) { c.Membership.MaxView = 0 }},
		{"negative archive", func(c *Config) { c.ArchiveSize = -1 }},
		{"archive ring past 2^31-1", func(c *Config) { c.ArchiveSize = buffer.MaxArchiveRing + 1 }},
		{"flat window past 2^31-1", func(c *Config) { c.MaxEventIDs = buffer.MaxArchiveRing + 1 }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			c.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate succeeded, want error")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	for _, ok := range []func(*Config){
		func(c *Config) { c.ArchiveSize = 0 },
		func(c *Config) { c.ArchiveSize = buffer.MaxArchiveRing },
		func(c *Config) { c.MaxEventIDs = buffer.MaxArchiveRing },
		func(c *Config) { c.DigestMode = CompactDigest; c.MaxEventIDs = buffer.MaxArchiveRing + 1 }, // no flat window
	} {
		cfg := DefaultConfig()
		ok(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("archive %d, MaxEventIDs %d, digest %v: %v", cfg.ArchiveSize, cfg.MaxEventIDs, cfg.DigestMode, err)
		}
	}
}

func TestNewRejectsNilRNG(t *testing.T) {
	t.Parallel()
	if _, err := New(1, DefaultConfig(), nil, nil); err == nil {
		t.Fatal("New with nil rng succeeded")
	}
}

func TestPublishDeliversLocally(t *testing.T) {
	t.Parallel()
	e, delivered := newEngine(t, 1, nil)
	ev := publish(t, e, []byte("hello"))
	if ev.ID.Origin != 1 || ev.ID.Seq != 1 {
		t.Fatalf("event id = %v", ev.ID)
	}
	if len(*delivered) != 1 || string((*delivered)[0].Payload) != "hello" {
		t.Fatalf("delivered = %v", *delivered)
	}
	if !e.Knows(ev.ID) {
		t.Fatal("published event not recorded")
	}
	ev2 := publish(t, e, nil)
	if ev2.ID.Seq != 2 {
		t.Fatalf("second seq = %d", ev2.ID.Seq)
	}
	if s := e.Stats(); s.EventsPublished != 2 || s.EventsDelivered != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestPublishRefusesPastMaxSeq: the last sequence number is published, and
// the publish after it is refused with ErrSeqExhausted, delivering and
// buffering nothing.
func TestPublishRefusesPastMaxSeq(t *testing.T) {
	t.Parallel()
	e, delivered := newEngine(t, 1, nil)
	e.nextSeq = proto.MaxSeq - 1
	if ev := publish(t, e, nil); ev.ID.Seq != proto.MaxSeq {
		t.Fatalf("last publish got seq %d, want %d", ev.ID.Seq, uint32(proto.MaxSeq))
	}
	if _, err := e.Publish([]byte("x")); !errors.Is(err, proto.ErrSeqExhausted) {
		t.Fatalf("publish past the last seq: %v, want ErrSeqExhausted", err)
	}
	if s := e.Stats(); len(*delivered) != 1 || e.PendingEvents() != 1 || s.EventsPublished != 1 {
		t.Fatalf("after the refusal: %d delivered, %d buffered, %d published; want 1 each", len(*delivered), e.PendingEvents(), s.EventsPublished)
	}
}

func TestPublishCopiesPayload(t *testing.T) {
	t.Parallel()
	e, delivered := newEngine(t, 1, nil)
	buf := []byte("abc")
	publish(t, e, buf)
	buf[0] = 'z'
	if string((*delivered)[0].Payload) != "abc" {
		t.Fatal("Publish aliased caller payload")
	}
}

func TestGossipDeliversNewEventsOnce(t *testing.T) {
	t.Parallel()
	e, delivered := newEngine(t, 1, nil)
	ev := proto.Event{ID: proto.EventID{Origin: 2, Seq: 1}, Payload: []byte("x")}
	g := proto.Gossip{From: 2, Events: []proto.Event{ev}}
	gossipTo(e, g, 1)
	gossipTo(e, g, 2) // duplicate
	if len(*delivered) != 1 {
		t.Fatalf("delivered %d times", len(*delivered))
	}
	s := e.Stats()
	if s.EventsDelivered != 1 || s.DuplicatesDropped != 1 || s.GossipsReceived != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestGossipPhasesUpdateMembership(t *testing.T) {
	t.Parallel()
	e, _ := newEngine(t, 1, nil)
	gossipTo(e, proto.Gossip{From: 2, Subs: []proto.ProcessID{2, 3, 4}}, 1)
	for _, p := range []proto.ProcessID{2, 3, 4} {
		if !slices.Contains(e.View(), p) {
			t.Fatalf("view missing %v", p)
		}
	}
	gossipTo(e, proto.Gossip{From: 2, Unsubs: []proto.Unsubscription{{Process: 3, Stamp: 2}}}, 2)
	if slices.Contains(e.View(), 3) {
		t.Fatal("unsubscribed process still in view")
	}
}

func TestTickEmitsToFanoutTargets(t *testing.T) {
	t.Parallel()
	e, _ := newEngine(t, 1, nil)
	if msgs := e.TickAppend(1, nil); msgs != nil {
		t.Fatalf("tick with empty view emitted %v", msgs)
	}
	e.Seed([]proto.ProcessID{2, 3, 4, 5, 6})
	ev := publish(t, e, []byte("x"))
	msgs := e.TickAppend(2, nil)
	if len(msgs) != 3 {
		t.Fatalf("emitted %d messages, want fanout 3", len(msgs))
	}
	seen := map[proto.ProcessID]bool{}
	for _, m := range msgs {
		if m.Kind != proto.GossipMsg || m.From != 1 {
			t.Fatalf("bad message %+v", m)
		}
		if seen[m.To] {
			t.Fatalf("duplicate target %v", m.To)
		}
		seen[m.To] = true
		if len(m.Gossip.Events) != 1 || m.Gossip.Events[0].ID != ev.ID {
			t.Fatalf("gossip events = %v", m.Gossip.Events)
		}
		// Digest contains the published id.
		found := false
		for _, id := range m.Gossip.Digest {
			if id == ev.ID {
				found = true
			}
		}
		if !found {
			t.Fatal("digest missing published id")
		}
		// Sender announces itself in subs.
		self := false
		for _, p := range m.Gossip.Subs {
			if p == 1 {
				self = true
			}
		}
		if !self {
			t.Fatal("sender did not announce itself")
		}
	}
	// events cleared: next tick has no notifications.
	msgs = e.TickAppend(3, nil)
	if len(msgs[0].Gossip.Events) != 0 {
		t.Fatal("events not cleared after emission")
	}
	if e.PendingEvents() != 0 {
		t.Fatal("PendingEvents != 0 after tick")
	}
}

func TestForwardedEventsAreGossipedAtMostOnce(t *testing.T) {
	t.Parallel()
	e, _ := newEngine(t, 1, nil)
	e.Seed([]proto.ProcessID{2, 3, 4})
	ev := proto.Event{ID: proto.EventID{Origin: 2, Seq: 1}}
	gossipTo(e, proto.Gossip{From: 2, Events: []proto.Event{ev}}, 1)
	first := e.TickAppend(2, nil)
	if len(first[0].Gossip.Events) != 1 {
		t.Fatal("received event not forwarded")
	}
	second := e.TickAppend(3, nil)
	if len(second[0].Gossip.Events) != 0 {
		t.Fatal("event forwarded twice")
	}
}

func TestAssumeFromDigest(t *testing.T) {
	t.Parallel()
	e, delivered := newEngine(t, 1, func(c *Config) { c.AssumeFromDigest = true })
	id := proto.EventID{Origin: 2, Seq: 5}
	out := gossipTo(e, proto.Gossip{From: 2, Digest: []proto.EventID{id}}, 1)
	if out != nil {
		t.Fatalf("assume mode produced messages %v", out)
	}
	if len(*delivered) != 1 || (*delivered)[0].ID != id || (*delivered)[0].Payload != nil {
		t.Fatalf("delivered = %v", *delivered)
	}
	if !e.Knows(id) {
		t.Fatal("assumed id not recorded")
	}
	if e.Stats().AssumedFromDigest != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}
	// The assumed notification is forwarded like a real one.
	e.Seed([]proto.ProcessID{3, 4, 5})
	msgs := e.TickAppend(2, nil)
	if len(msgs[0].Gossip.Events) != 1 || msgs[0].Gossip.Events[0].ID != id {
		t.Fatal("assumed notification not forwarded")
	}
}

// TestDigestDuplicateDeliversOnce: the digest's unknown ids are taken in one
// batched read before any of them is acted on, so an id a hostile digest
// repeats — or advertises under a watermark as well — is unknown twice in
// that read; it must still be delivered, and counted, once. The second
// digest is longer than the difference's stack room, repeats included.
func TestDigestDuplicateDeliversOnce(t *testing.T) {
	t.Parallel()
	e, delivered := newEngine(t, 1, func(c *Config) { c.AssumeFromDigest = true })
	id := proto.EventID{Origin: 2, Seq: 5}
	gossipTo(e, proto.Gossip{From: 2, Digest: []proto.EventID{id, id}}, 1)
	if len(*delivered) != 1 || (*delivered)[0].ID != id {
		t.Fatalf("delivered = %v, want %v once", *delivered, id)
	}
	if got := e.Stats(); got.AssumedFromDigest != 1 || got.EventsDelivered != 1 {
		t.Fatalf("stats = %+v, want one assumed delivery", got)
	}

	var long []proto.EventID
	for seq := uint32(1); seq <= 100; seq++ {
		long = append(long, proto.EventID{Origin: 3, Seq: seq}, proto.EventID{Origin: 3, Seq: seq})
	}
	gossipTo(e, proto.Gossip{From: 3, Digest: long, DigestWatermarks: []proto.EventID{{Origin: 3, Seq: 2}}}, 2)
	if got := e.Stats(); got.AssumedFromDigest != 101 || got.EventsDelivered != 101 {
		t.Fatalf("stats = %+v, want 101 assumed deliveries", got)
	}
	seen := map[proto.EventID]bool{}
	for _, ev := range *delivered {
		if seen[ev.ID] {
			t.Fatalf("%v delivered twice", ev.ID)
		}
		seen[ev.ID] = true
	}
}

func TestRetransmitRoundTrip(t *testing.T) {
	t.Parallel()
	// p2 published and archived an event; p1 sees its digest and pulls it.
	p2, _ := newEngine(t, 2, nil)
	ev := publish(t, p2, []byte("payload"))
	p2.Seed([]proto.ProcessID{1, 3, 4})
	gossips := p2.TickAppend(1, nil)

	p1, delivered := newEngine(t, 1, func(c *Config) { c.Retransmit = true })
	// Deliver only the digest (simulate the events list having been lost by
	// stripping it).
	g := gossips[0].Gossip.Clone()
	g.Events = nil
	reqs := gossipTo(p1, g, 2)
	if len(reqs) != 1 || reqs[0].Kind != proto.RetransmitRequestMsg || reqs[0].To != 2 {
		t.Fatalf("requests = %+v", reqs)
	}
	replies := p2.HandleMessageAppend(reqs[0], 3, nil)
	if len(replies) != 1 || replies[0].Kind != proto.RetransmitReplyMsg || replies[0].To != 1 {
		t.Fatalf("replies = %+v", replies)
	}
	p1.HandleMessageAppend(replies[0], 4, nil)
	if len(*delivered) != 1 || string((*delivered)[0].Payload) != "payload" {
		t.Fatalf("delivered = %v", *delivered)
	}
	if !p1.Knows(ev.ID) {
		t.Fatal("retransmitted event not recorded")
	}
	if p2.Stats().RetransmitServed != 1 {
		t.Fatalf("server stats = %+v", p2.Stats())
	}
}

func TestRetransmitRequestCap(t *testing.T) {
	t.Parallel()
	e, _ := newEngine(t, 1, func(c *Config) {
		c.Retransmit = true
		c.MaxRetransmitPerGossip = 2
	})
	digest := make([]proto.EventID, 10)
	for i := range digest {
		digest[i] = proto.EventID{Origin: 2, Seq: uint32(i + 1)}
	}
	reqs := gossipTo(e, proto.Gossip{From: 2, Digest: digest}, 1)
	if len(reqs) != 1 || len(reqs[0].Request) != 2 {
		t.Fatalf("requests = %+v", reqs)
	}
}

func TestRetransmitMiss(t *testing.T) {
	t.Parallel()
	e, _ := newEngine(t, 1, nil)
	out := e.HandleMessageAppend(proto.Message{
		Kind:    proto.RetransmitRequestMsg,
		From:    2,
		To:      1,
		Request: []proto.EventID{{Origin: 9, Seq: 9}},
	}, 1, nil)
	if out != nil {
		t.Fatalf("miss produced reply %v", out)
	}
	if e.Stats().RetransmitMisses != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}
}

// TestRetransmitRequestRepeats: a hostile request that names archived ids
// over and over is answered once per id, in the order the request first
// names them, and the counters say what was sent and what was absent.
func TestRetransmitRequestRepeats(t *testing.T) {
	t.Parallel()
	e, _ := newEngine(t, 1, nil)
	archived := make([]proto.EventID, 200) // DefaultConfig's ArchiveSize
	for i := range archived {
		archived[i] = publish(t, e, make([]byte, 64)).ID
	}
	serve := func(req []proto.EventID) (reply []proto.Event, served, misses uint64) {
		t.Helper()
		before := e.Stats()
		out := e.HandleMessageAppend(proto.Message{Kind: proto.RetransmitRequestMsg, From: 2, To: 1, Request: req}, 1, nil)
		if len(out) > 1 {
			t.Fatalf("%d replies to one request", len(out))
		}
		if len(out) == 1 {
			reply = out[0].Reply
		}
		after := e.Stats()
		return reply, after.RetransmitServed - before.RetransmitServed, after.RetransmitMisses - before.RetransmitMisses
	}

	one := make([]proto.EventID, 20_000)
	for i := range one {
		one[i] = archived[42]
	}
	if reply, served, misses := serve(one); len(reply) != 1 || reply[0].ID != archived[42] || served != 1 || misses != 0 {
		t.Fatalf("one id named %d times: %d events, served %d, missed %d; want 1, 1, 0", len(one), len(reply), served, misses)
	}

	absent := proto.EventID{Origin: 9, Seq: 9}
	req := append(append([]proto.EventID{absent}, archived...), archived...)
	req = append(req, absent)
	reply, served, misses := serve(req)
	if len(reply) != len(archived) || served != uint64(len(archived)) || misses != 2 {
		t.Fatalf("every archived id twice and one absent twice: %d events, served %d, missed %d; want 200, 200, 2", len(reply), served, misses)
	}
	for i, ev := range reply {
		if ev.ID != archived[i] || len(ev.Payload) != 64 {
			t.Fatalf("reply[%d] = %v with %d bytes, want %v with 64 in first-mention order", i, ev.ID, len(ev.Payload), archived[i])
		}
	}
}

func TestSubscribeMessageJoins(t *testing.T) {
	t.Parallel()
	e, _ := newEngine(t, 1, nil)
	e.HandleMessageAppend(proto.Message{Kind: proto.SubscribeMsg, From: 9, To: 1, Subscriber: 9}, 1, nil)
	if !slices.Contains(e.View(), 9) {
		t.Fatal("subscriber not in view")
	}
	// The subscription is forwarded with the next gossip.
	e.Seed([]proto.ProcessID{2, 3, 4})
	msgs := e.TickAppend(2, nil)
	found := false
	for _, p := range msgs[0].Gossip.Subs {
		if p == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("subscription not gossiped on behalf of the joiner")
	}
}

func TestJoinVia(t *testing.T) {
	t.Parallel()
	e, _ := newEngine(t, 5, nil)
	msg, err := e.JoinVia(2)
	if err != nil {
		t.Fatalf("JoinVia: %v", err)
	}
	if msg.Kind != proto.SubscribeMsg || msg.To != 2 || msg.Subscriber != 5 {
		t.Fatalf("join message = %+v", msg)
	}
	if !slices.Contains(e.View(), 2) {
		t.Fatal("contact not seeded into view")
	}
	if _, err := e.JoinVia(5); err == nil {
		t.Fatal("JoinVia(self) succeeded")
	}
	if _, err := e.JoinVia(proto.NilProcess); err == nil {
		t.Fatal("JoinVia(nil) succeeded")
	}
}

func TestUnsubscribeSpreads(t *testing.T) {
	t.Parallel()
	e, _ := newEngine(t, 1, nil)
	e.Seed([]proto.ProcessID{2, 3, 4})
	if err := e.Unsubscribe(10); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	msgs := e.TickAppend(11, nil)
	g := msgs[0].Gossip
	if len(g.Unsubs) != 1 || g.Unsubs[0].Process != 1 {
		t.Fatalf("unsubs = %v", g.Unsubs)
	}
	for _, p := range g.Subs {
		if p == 1 {
			t.Fatal("unsubscribing process still announces itself")
		}
	}
}

func TestEventsBufferBounded(t *testing.T) {
	t.Parallel()
	e, _ := newEngine(t, 1, func(c *Config) { c.MaxEvents = 5 })
	evs := make([]proto.Event, 20)
	for i := range evs {
		evs[i] = proto.Event{ID: proto.EventID{Origin: 2, Seq: uint32(i + 1)}}
	}
	gossipTo(e, proto.Gossip{From: 2, Events: evs}, 1)
	if e.PendingEvents() > 5 {
		t.Fatalf("pending events %d exceed bound", e.PendingEvents())
	}
	if e.Stats().EventsOverflowed == 0 {
		t.Fatal("overflow not counted")
	}
}

func TestFlatDigestWindowEviction(t *testing.T) {
	t.Parallel()
	// With DedupMemory (default): eviction shrinks the advertised window
	// but delivered ids are never forgotten for dedup purposes.
	e, delivered := newEngine(t, 1, func(c *Config) { c.MaxEventIDs = 3 })
	var ids []proto.EventID
	for i := uint32(1); i <= 5; i++ {
		ev := proto.Event{ID: proto.EventID{Origin: 2, Seq: i}}
		ids = append(ids, ev.ID)
		gossipTo(e, proto.Gossip{From: 2, Events: []proto.Event{ev}}, uint64(i))
	}
	if e.DigestLen() != 3 {
		t.Fatalf("digest window len = %d, want 3", e.DigestLen())
	}
	if !e.Knows(ids[0]) {
		t.Fatal("dedup memory forgot a delivered id")
	}
	// Re-arrival of an evicted id must NOT be re-delivered.
	before := len(*delivered)
	gossipTo(e, proto.Gossip{From: 2, Events: []proto.Event{{ID: ids[0]}}}, 9)
	if len(*delivered) != before {
		t.Fatal("evicted id re-delivered despite dedup memory")
	}
	// The advertised digest only contains the 3 newest ids.
	e.Seed([]proto.ProcessID{3, 4, 5})
	msgs := e.TickAppend(10, nil)
	if got := len(msgs[0].Gossip.Digest); got != 3 {
		t.Fatalf("advertised digest has %d ids, want 3", got)
	}
}

func TestFlatDigestPseudocodeFaithful(t *testing.T) {
	t.Parallel()
	// With DedupMemory off, the engine follows Fig. 1 literally: truncation
	// forgets, and re-arrivals are delivered again.
	e, delivered := newEngine(t, 1, func(c *Config) {
		c.MaxEventIDs = 3
		c.DedupMemory = false
	})
	var ids []proto.EventID
	for i := uint32(1); i <= 5; i++ {
		ev := proto.Event{ID: proto.EventID{Origin: 2, Seq: i}}
		ids = append(ids, ev.ID)
		gossipTo(e, proto.Gossip{From: 2, Events: []proto.Event{ev}}, uint64(i))
	}
	if e.Knows(ids[0]) || e.Knows(ids[1]) {
		t.Fatal("oldest ids not evicted")
	}
	if !e.Knows(ids[4]) {
		t.Fatal("newest id evicted")
	}
	before := len(*delivered)
	gossipTo(e, proto.Gossip{From: 2, Events: []proto.Event{{ID: ids[0]}}}, 9)
	if len(*delivered) != before+1 {
		t.Fatal("re-arrival of a forgotten id was not re-delivered")
	}
}

func TestCompactDigestMode(t *testing.T) {
	t.Parallel()
	e, _ := newEngine(t, 1, func(c *Config) { c.DigestMode = CompactDigest })
	// Deliver 1..100 in order from origin 2: digest must stay compact.
	for i := uint32(1); i <= 100; i++ {
		gossipTo(e, proto.Gossip{From: 2, Events: []proto.Event{
			{ID: proto.EventID{Origin: 2, Seq: i}},
		}}, uint64(i))
	}
	if e.DigestLen() != 0 {
		t.Fatalf("compact digest retains %d sparse ids for an in-order stream", e.DigestLen())
	}
	if !e.Knows(proto.EventID{Origin: 2, Seq: 50}) {
		t.Fatal("compacted id forgotten")
	}
	// Outgoing gossip advertises a watermark instead of 100 ids.
	e.Seed([]proto.ProcessID{3, 4, 5})
	msgs := e.TickAppend(200, nil)
	g := msgs[0].Gossip
	if len(g.Digest) != 0 {
		t.Fatalf("compact mode emitted %d sparse ids", len(g.Digest))
	}
	foundWM := false
	for _, wm := range g.DigestWatermarks {
		if wm.Origin == 2 && wm.Seq == 100 {
			foundWM = true
		}
	}
	if !foundWM {
		t.Fatalf("watermarks = %v", g.DigestWatermarks)
	}
}

func TestCompactWatermarkAssumption(t *testing.T) {
	t.Parallel()
	// A receiver in assume mode expands an incoming watermark into
	// deliveries of every unknown identifier it advertises.
	e, delivered := newEngine(t, 1, func(c *Config) { c.AssumeFromDigest = true })
	gossipTo(e, proto.Gossip{From: 2, DigestWatermarks: []proto.EventID{{Origin: 2, Seq: 4}}}, 1)
	if len(*delivered) != 4 {
		t.Fatalf("delivered %d events from watermark, want 4", len(*delivered))
	}
	for _, ev := range *delivered {
		if ev.ID.Origin != 2 || ev.ID.Seq < 1 || ev.ID.Seq > 4 {
			t.Fatalf("bad assumed event %v", ev.ID)
		}
	}
}

func TestWatermarkExpansionBounded(t *testing.T) {
	t.Parallel()
	// A hostile watermark advertising 10^9 events must not hang the engine.
	e, delivered := newEngine(t, 1, func(c *Config) { c.AssumeFromDigest = true })
	gossipTo(e, proto.Gossip{From: 2, DigestWatermarks: []proto.EventID{{Origin: 2, Seq: 1 << 30}}}, 1)
	if len(*delivered) > maxWatermarkExpansion {
		t.Fatalf("expanded %d ids, cap is %d", len(*delivered), maxWatermarkExpansion)
	}
}

// TestHostileFarAheadDeliveredOnce: one gossip of 1 100 ids of one origin,
// each more than 64 past its watermark and each nearer than the last, so
// that past the digest's bound of 1 024 each pushes the furthest kept out,
// reaches one of four engines whose events buffers carry it all. Every id
// SHALL be delivered at most once by each engine, and with nothing new
// published the buffers SHALL drain.
func TestHostileFarAheadDeliveredOnce(t *testing.T) {
	t.Parallel()
	const n = 1100
	engines := map[proto.ProcessID]*Engine{}
	delivered := map[proto.ProcessID]map[proto.EventID]int{}
	for self := proto.ProcessID(1); self <= 4; self++ {
		got := map[proto.EventID]int{}
		e, err := New(self, func() Config { c := DefaultConfig(); c.MaxEvents = 2 * n; return c }(),
			func(ev proto.Event) { got[ev.ID]++ }, rng.New(uint64(self)))
		if err != nil {
			t.Fatal(err)
		}
		e.Seed([]proto.ProcessID{1, 2, 3, 4})
		engines[self], delivered[self] = e, got
	}
	flood := make([]proto.Event, n)
	for i := range flood {
		flood[i] = proto.Event{ID: proto.EventID{Origin: 9, Seq: 1<<30 - uint32(i)}}
	}
	gossipTo(engines[1], proto.Gossip{From: 9, Events: flood}, 0)
	for now := uint64(1); now <= 8; now++ {
		var wire []proto.Message
		for self := proto.ProcessID(1); self <= 4; self++ {
			wire = engines[self].TickAppend(now, wire)
		}
		for ; len(wire) > 0; wire = wire[1:] {
			if dst, ok := engines[wire[0].To]; ok {
				wire = append(wire, dst.HandleMessageAppend(wire[0], now, nil)...)
			}
		}
	}
	for self, got := range delivered {
		if len(got) < 1024 {
			t.Errorf("process %d delivered %d of the %d ids", self, len(got), n)
		}
		for id, k := range got {
			if k > 1 {
				t.Fatalf("process %d delivered %v %d times", self, id, k)
			}
		}
		if p := engines[self].PendingEvents(); p != 0 {
			t.Errorf("process %d still buffers %d events after 8 quiet rounds", self, p)
		}
	}
}

// TestLostFirstEventNotDeaf: with the default dedup memory, an engine that
// never receives its origin's seq 1 still delivers each of the 3 000 later
// ids exactly once, arriving ten to a gossip, some of them twice. Before the
// digest's list folded, the window and a full far-ahead list took 1 087 of
// them and every later one read as delivered: the engine was deaf to the
// origin from then on.
func TestLostFirstEventNotDeaf(t *testing.T) {
	t.Parallel()
	e, delivered := newEngine(t, 1, nil)
	const n = 3000
	for seq := uint32(2); seq <= n+1; seq += 10 {
		g := proto.Gossip{From: 9}
		for s := seq; s < seq+10 && s <= n+1; s++ {
			g.Events = append(g.Events, proto.Event{ID: proto.EventID{Origin: 9, Seq: s}})
		}
		g.Events = append(g.Events, g.Events[0]) // a duplicate within the gossip
		gossipTo(e, g, uint64(seq))
		if seq > 2 {
			gossipTo(e, proto.Gossip{From: 8, Events: g.Events[:3]}, uint64(seq)) // and across gossips
		}
	}
	got := map[proto.EventID]int{}
	for _, ev := range *delivered {
		got[ev.ID]++
	}
	if len(got) != n {
		t.Fatalf("%d of the %d ids after the lost one delivered", len(got), n)
	}
	for id, k := range got {
		if k != 1 || id.Seq < 2 {
			t.Fatalf("%v delivered %d times", id, k)
		}
	}
}

func TestHandleMessageIgnoresMalformed(t *testing.T) {
	t.Parallel()
	e, _ := newEngine(t, 1, nil)
	if out := e.HandleMessageAppend(proto.Message{Kind: proto.GossipMsg}, 1, nil); out != nil {
		t.Fatal("nil gossip produced output")
	}
	if out := e.HandleMessageAppend(proto.Message{Kind: proto.MessageKind(99)}, 1, nil); out != nil {
		t.Fatal("unknown kind produced output")
	}
	e.HandleMessageAppend(proto.Message{Kind: proto.SubscribeMsg, Subscriber: 1}, 1, nil) // self-subscribe: no-op
	if e.mem.ViewLen() != 0 {
		t.Fatal("self-subscription entered view")
	}
}

func TestDigestModeString(t *testing.T) {
	t.Parallel()
	if FlatDigest.String() != "flat" || CompactDigest.String() != "compact" {
		t.Error("DigestMode.String wrong")
	}
	if DigestMode(7).String() != "digestmode(7)" {
		t.Error("unknown DigestMode string wrong")
	}
}

func TestTwoEngineConvergence(t *testing.T) {
	t.Parallel()
	// End-to-end: events published at p1 reach p2 through gossip.
	p1, _ := newEngine(t, 1, nil)
	p2, got2 := newEngine(t, 2, nil)
	p1.Seed([]proto.ProcessID{2})
	p2.Seed([]proto.ProcessID{1})
	ev := publish(t, p1, []byte("news"))
	engines := map[proto.ProcessID]*Engine{1: p1, 2: p2}
	for now := uint64(1); now <= 3; now++ {
		var wire []proto.Message
		for _, e := range engines {
			wire = append(wire, e.TickAppend(now, nil)...)
		}
		for len(wire) > 0 {
			m := wire[0]
			wire = wire[1:]
			if dst, ok := engines[m.To]; ok {
				wire = append(wire, dst.HandleMessageAppend(m, now, nil)...)
			}
		}
	}
	if len(*got2) != 1 || (*got2)[0].ID != ev.ID {
		t.Fatalf("p2 delivered %v", *got2)
	}
}

func TestMembershipConfigExposed(t *testing.T) {
	t.Parallel()
	e, _ := newEngine(t, 1, nil)
	if e.cfg.Fanout != 3 || e.Self() != 1 {
		t.Fatal("accessors wrong")
	}
}

func BenchmarkHandleGossip(b *testing.B) {
	cfg := DefaultConfig()
	e, err := New(1, cfg, nil, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	e.Seed([]proto.ProcessID{2, 3, 4, 5, 6})
	g := proto.Gossip{
		From: 2,
		Subs: []proto.ProcessID{2, 7, 8},
		Events: []proto.Event{
			{ID: proto.EventID{Origin: 2, Seq: 1}, Payload: []byte("x")},
		},
		Digest: []proto.EventID{{Origin: 2, Seq: 1}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gg := g
		gg.Events = []proto.Event{{ID: proto.EventID{Origin: 2, Seq: uint32(i + 1)}}}
		e.HandleMessageAppend(proto.Message{Kind: proto.GossipMsg, From: 2, To: 1, Gossip: &gg}, uint64(i), nil)
	}
}

func BenchmarkTick(b *testing.B) {
	e, err := New(1, DefaultConfig(), nil, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	e.Seed([]proto.ProcessID{2, 3, 4, 5, 6, 7, 8})
	for i := 0; i < b.N; i++ {
		publish(b, e, []byte("payload"))
		_ = e.TickAppend(uint64(i), nil)
	}
}

func TestMembershipEvery(t *testing.T) {
	t.Parallel()
	e, _ := newEngine(t, 1, func(c *Config) { c.MembershipEvery = 3 })
	e.Seed([]proto.ProcessID{2, 3, 4, 5})
	withMembership := 0
	for tick := uint64(1); tick <= 6; tick++ {
		msgs := e.TickAppend(tick, nil)
		if len(msgs[0].Gossip.Subs) > 0 {
			withMembership++
		}
	}
	if withMembership != 2 {
		t.Fatalf("membership attached to %d of 6 gossips, want 2 (every 3rd)", withMembership)
	}
}

func TestMembershipEveryValidation(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.MembershipEvery = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative MembershipEvery accepted")
	}
}

func TestLoggerRequiresRetransmit(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.Logger = 99
	if err := cfg.Validate(); err == nil {
		t.Fatal("Logger without Retransmit accepted")
	}
}

func TestLoggerThirdPhase(t *testing.T) {
	t.Parallel()
	// rpbcast-style setup: p2 originates an event but its archive is tiny;
	// the logger (p9) archives everything. p1 learns the id from p2's
	// digest and must pull from the logger, not from p2.
	logger, _ := newEngine(t, 9, func(c *Config) { c.ArchiveSize = 1 << 16 })
	p2, _ := newEngine(t, 2, nil)
	ev := publish(t, p2, []byte("logged"))
	// The logger received the event through normal gossip at some point.
	gossipTo(logger, proto.Gossip{From: 2, Events: []proto.Event{ev.Clone()}}, 1)

	p1, delivered := newEngine(t, 1, func(c *Config) {
		c.Retransmit = true
		c.Logger = 9
	})
	reqs := gossipTo(p1, proto.Gossip{From: 2, Digest: []proto.EventID{ev.ID}}, 2)
	if len(reqs) != 1 || reqs[0].To != 9 {
		t.Fatalf("request went to %v, want the logger p9", reqs)
	}
	replies := logger.HandleMessageAppend(reqs[0], 3, nil)
	if len(replies) != 1 {
		t.Fatalf("logger replies = %v", replies)
	}
	p1.HandleMessageAppend(replies[0], 4, nil)
	if len(*delivered) != 1 || string((*delivered)[0].Payload) != "logged" {
		t.Fatalf("delivered = %v", *delivered)
	}
}

func TestLoggerItselfPullsFromSender(t *testing.T) {
	t.Parallel()
	// The logger never redirects to itself.
	lg, _ := newEngine(t, 9, func(c *Config) {
		c.Retransmit = true
		c.Logger = 9
	})
	reqs := gossipTo(lg, proto.Gossip{From: 2, Digest: []proto.EventID{{Origin: 2, Seq: 1}}}, 1)
	if len(reqs) != 1 || reqs[0].To != 2 {
		t.Fatalf("logger's own request went to %v, want the sender p2", reqs)
	}
}

func TestWeightedEventEviction(t *testing.T) {
	t.Parallel()
	e, _ := newEngine(t, 1, func(c *Config) {
		c.WeightedEventEviction = true
		c.MaxEvents = 3
	})
	mk := func(seq uint32) proto.Event { return proto.Event{ID: proto.EventID{Origin: 2, Seq: seq}} }
	// Three events buffered; event 1 arrives three more times (widely
	// disseminated), the others never again.
	gossipTo(e, proto.Gossip{From: 2, Events: []proto.Event{mk(1), mk(2), mk(3)}}, 1)
	for i := 0; i < 3; i++ {
		gossipTo(e, proto.Gossip{From: 3, Events: []proto.Event{mk(1)}}, uint64(2+i))
	}
	// A fourth fresh event forces one eviction: the heavy one must go.
	gossipTo(e, proto.Gossip{From: 2, Events: []proto.Event{mk(4)}}, 9)
	if e.PendingEvents() != 3 {
		t.Fatalf("pending = %d", e.PendingEvents())
	}
	e.Seed([]proto.ProcessID{5, 6, 7})
	msgs := e.TickAppend(10, nil)
	for _, ev := range msgs[0].Gossip.Events {
		if ev.ID.Seq == 1 {
			t.Fatal("most-duplicated event survived weighted eviction")
		}
	}
	if len(msgs[0].Gossip.Events) != 3 {
		t.Fatalf("forwarded %d events", len(msgs[0].Gossip.Events))
	}
	// Weights reset with the buffer after emission.
	if e.eventWeights != nil {
		t.Fatal("weights not cleared after tick")
	}
}

func TestWeightedEventEvictionTieBreak(t *testing.T) {
	t.Parallel()
	// With all weights equal, eviction still works and stays within bounds.
	e, _ := newEngine(t, 1, func(c *Config) {
		c.WeightedEventEviction = true
		c.MaxEvents = 2
	})
	for i := uint32(1); i <= 10; i++ {
		gossipTo(e, proto.Gossip{From: 2, Events: []proto.Event{
			{ID: proto.EventID{Origin: 2, Seq: i}},
		}}, uint64(i))
	}
	if e.PendingEvents() != 2 {
		t.Fatalf("pending = %d", e.PendingEvents())
	}
	if e.Stats().EventsOverflowed != 8 {
		t.Fatalf("overflowed = %d", e.Stats().EventsOverflowed)
	}
}
