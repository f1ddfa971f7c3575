package core

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// allocEngine builds an engine with a warmed-up view of l members.
func allocEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := New(1, cfg, nil, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	var seeds []proto.ProcessID
	for p := proto.ProcessID(2); int(p) <= cfg.Membership.MaxView+1; p++ {
		seeds = append(seeds, p)
	}
	e.Seed(seeds)
	return e
}

// tickAllocs measures steady-state allocations of one TickAppend call into
// a reused, pre-grown buffer.
func tickAllocs(t testing.TB, fanout int) float64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Fanout = fanout
	e := allocEngine(t, cfg)
	buf := make([]proto.Message, 0, 64)
	now := uint64(0)
	return testing.AllocsPerRun(200, func() {
		now++
		buf = e.TickAppend(now, buf[:0])
	})
}

// TestTickAppendNoAllocPerMessage is the hot-path regression gate: the
// cost of TickAppend is a small constant independent of the fanout — the
// F messages of a round share one gossip, so emitting more messages must
// not allocate more.
func TestTickAppendNoAllocPerMessage(t *testing.T) {
	low := tickAllocs(t, 2)
	high := tickAllocs(t, 10)
	if high > low {
		t.Errorf("TickAppend allocates per message: %v allocs at F=2 vs %v at F=10", low, high)
	}
	if low > 8 {
		t.Errorf("TickAppend costs %v allocs per round; want a small constant", low)
	}
}

// TestHandleMessageAppendZeroAllocDuplicate: receiving a gossip whose
// events and digest identifiers are all already known — the dominant case
// in a converged system — must not allocate at all.
func TestHandleMessageAppendZeroAllocDuplicate(t *testing.T) {
	cfg := DefaultConfig()
	e := allocEngine(t, cfg)
	ev := proto.Event{ID: proto.EventID{Origin: 2, Seq: 1}}
	e.HandleMessageAppend(proto.Message{
		Kind:   proto.GossipMsg,
		From:   2,
		To:     1,
		Gossip: &proto.Gossip{From: 2, Events: []proto.Event{ev}},
	}, 1, nil)
	if !e.Knows(ev.ID) {
		t.Fatal("setup: event not delivered")
	}
	// Steady state: sender already in view, event and digest id known.
	dup := proto.Message{
		Kind: proto.GossipMsg,
		From: 2,
		To:   1,
		Gossip: &proto.Gossip{
			From:   2,
			Subs:   []proto.ProcessID{2},
			Events: []proto.Event{ev},
			Digest: []proto.EventID{ev.ID},
		},
	}
	var out []proto.Message
	allocs := testing.AllocsPerRun(200, func() {
		out = e.HandleMessageAppend(dup, 2, out[:0])
	})
	if allocs != 0 {
		t.Errorf("duplicate-gossip HandleMessageAppend allocates %v times per call, want 0", allocs)
	}
	if len(out) != 0 {
		t.Errorf("duplicate gossip produced %d responses", len(out))
	}
}

// TestTickAppendSharesGossip pins the emission contract: every target of
// one TickAppend is handed the same read-only gossip, not a copy.
func TestTickAppendSharesGossip(t *testing.T) {
	e := allocEngine(t, DefaultConfig())
	shared := e.TickAppend(1, nil)
	if len(shared) < 2 {
		t.Fatalf("got %d messages, want >= 2", len(shared))
	}
	for i := 1; i < len(shared); i++ {
		if shared[i].Gossip != shared[0].Gossip {
			t.Fatal("TickAppend messages do not share the round's gossip")
		}
	}
}

// TestWeightedEventEvictionZeroAlloc: with the events buffer at its bound
// under WeightedEventEviction, receiving one more fresh notification — a
// delivery and the eviction of the heaviest buffered one, found by walking
// the buffer where it lies — allocates nothing, with or without duplicate
// counts on record.
func TestWeightedEventEvictionZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WeightedEventEviction = true
	cfg.MaxEvents = 8
	e := allocEngine(t, cfg)
	g := &proto.Gossip{From: 2, Subs: []proto.ProcessID{2}, Events: make([]proto.Event, 1)}
	msg := proto.Message{Kind: proto.GossipMsg, From: 2, To: 1, Gossip: g}
	var out []proto.Message
	seq := uint32(0)
	receive := func() {
		seq++
		g.Events[0].ID = proto.EventID{Origin: 2, Seq: seq}
		out = e.HandleMessageAppend(msg, 1, out[:0])
	}
	for i := 0; i < 4*cfg.MaxEvents; i++ {
		receive()
	}
	for _, duplicates := range []bool{false, true} {
		if duplicates {
			e.noteDuplicate(proto.EventID{Origin: 2, Seq: seq}) // makes the weight map
		}
		before := e.Stats().EventsOverflowed
		if allocs := testing.AllocsPerRun(200, receive); allocs != 0 {
			t.Errorf("duplicates on record %v: a reception that evicts the heaviest event allocates %v times, want 0", duplicates, allocs)
		}
		if got := e.Stats().EventsOverflowed - before; got != 201 { // AllocsPerRun warms up once
			t.Errorf("duplicates on record %v: %d evictions over 201 receptions, want one each", duplicates, got)
		}
	}
}
