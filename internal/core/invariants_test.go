package core

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/proto"
	"repro/internal/rng"
)

// checkInvariants asserts the engine's bounded-state invariants (§3.2:
// every list has a maximum size).
func checkInvariants(t *testing.T, e *Engine) {
	t.Helper()
	cfg := e.cfg
	if got := e.mem.ViewLen(); got > cfg.Membership.MaxView {
		t.Fatalf("view %d exceeds l=%d", got, cfg.Membership.MaxView)
	}
	if got := e.mem.SubsLen(); got > cfg.Membership.MaxSubs {
		t.Fatalf("subs %d exceeds bound %d", got, cfg.Membership.MaxSubs)
	}
	if got := e.mem.UnsubsLen(); got > cfg.Membership.MaxUnsubs {
		t.Fatalf("unsubs %d exceeds bound %d", got, cfg.Membership.MaxUnsubs)
	}
	if got := e.PendingEvents(); got > cfg.MaxEvents {
		t.Fatalf("events %d exceeds bound %d", got, cfg.MaxEvents)
	}
	if cfg.DigestMode == FlatDigest {
		if got := e.DigestLen(); got > cfg.MaxEventIDs {
			t.Fatalf("digest window %d exceeds bound %d", got, cfg.MaxEventIDs)
		}
	}
	if slices.Contains(e.View(), e.Self()) {
		t.Fatal("engine's view contains itself")
	}
}

// randomMessage synthesizes an arbitrary (but well-typed) protocol message
// from fuzz bytes.
func randomMessage(r *rng.Source) proto.Message {
	pid := func() proto.ProcessID { return proto.ProcessID(r.Intn(12)) } // includes 0 and self
	id := func() proto.EventID {
		return proto.EventID{Origin: pid(), Seq: uint32(r.Intn(30))} // includes seq 0
	}
	m := proto.Message{From: pid(), To: 1}
	switch r.Intn(5) {
	case 0:
		g := &proto.Gossip{From: m.From}
		for i := 0; i < r.Intn(6); i++ {
			g.Subs = append(g.Subs, pid())
		}
		for i := 0; i < r.Intn(4); i++ {
			g.Unsubs = append(g.Unsubs, proto.Unsubscription{Process: pid(), Stamp: uint64(r.Intn(100))})
		}
		for i := 0; i < r.Intn(6); i++ {
			g.Events = append(g.Events, proto.Event{ID: id(), Payload: []byte{byte(i)}})
		}
		for i := 0; i < r.Intn(8); i++ {
			g.Digest = append(g.Digest, id())
		}
		for i := 0; i < r.Intn(3); i++ {
			g.DigestWatermarks = append(g.DigestWatermarks, id())
		}
		m.Kind = proto.GossipMsg
		m.Gossip = g
	case 1:
		m.Kind = proto.SubscribeMsg
		m.Subscriber = pid()
	case 2:
		m.Kind = proto.RetransmitRequestMsg
		for i := 0; i < r.Intn(6); i++ {
			m.Request = append(m.Request, id())
		}
	case 3:
		m.Kind = proto.RetransmitReplyMsg
		for i := 0; i < r.Intn(6); i++ {
			m.Reply = append(m.Reply, proto.Event{ID: id()})
			if r.Bool(0.5) {
				m.ReplyHops = append(m.ReplyHops, uint32(r.Intn(10)))
			}
		}
	case 4:
		m.Kind = proto.MessageKind(r.Intn(8)) // possibly invalid kind
	}
	return m
}

// TestEngineInvariantsUnderRandomTraffic drives engines in every digest
// configuration through long random message/tick/publish sequences and
// asserts the bounded-state invariants after every step.
func TestEngineInvariantsUnderRandomTraffic(t *testing.T) {
	t.Parallel()
	configs := map[string]func(*Config){
		"default":    nil,
		"assume":     func(c *Config) { c.AssumeFromDigest = true },
		"retransmit": func(c *Config) { c.Retransmit = true },
		"compact":    func(c *Config) { c.DigestMode = CompactDigest },
		"pseudocode": func(c *Config) { c.DedupMemory = false },
		"tinybuffers": func(c *Config) {
			c.MaxEvents = 2
			c.MaxEventIDs = 2
			c.Membership.MaxView = 3
			c.Membership.MaxSubs = 2
			c.Membership.MaxUnsubs = 2
		},
		"logger": func(c *Config) { c.Retransmit = true; c.Logger = 7 },
	}
	for name, mutate := range configs {
		mutate := mutate
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, _ := newEngine(t, 1, mutate)
			r := rng.New(0xfeed)
			for step := 0; step < 3000; step++ {
				now := uint64(step)
				switch r.Intn(10) {
				case 0:
					publish(t, e, []byte{byte(step)})
				case 1:
					_ = e.TickAppend(now, nil)
				case 2:
					e.Seed([]proto.ProcessID{proto.ProcessID(r.Intn(12))})
				default:
					_ = e.HandleMessageAppend(randomMessage(r), now, nil)
				}
				checkInvariants(t, e)
			}
		})
	}
}

// TestDeliveryExactlyOnceUnderRandomTraffic: no event id is ever delivered
// twice while dedup memory is on, regardless of message order, duplicates,
// replies, or watermark advertisements.
func TestDeliveryExactlyOnceUnderRandomTraffic(t *testing.T) {
	t.Parallel()
	seen := map[proto.EventID]int{}
	cfg := DefaultConfig()
	cfg.AssumeFromDigest = true
	e, err := New(1, cfg, func(ev proto.Event) { seen[ev.ID]++ }, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(0xabcd)
	for step := 0; step < 5000; step++ {
		_ = e.HandleMessageAppend(randomMessage(r), uint64(step), nil)
		if step%100 == 0 {
			_ = e.TickAppend(uint64(step), nil)
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("event %v delivered %d times", id, n)
		}
	}
	if len(seen) == 0 {
		t.Fatal("fuzz traffic produced no deliveries at all")
	}
}

// TestEngineQuickProperty drives a pair of engines with quick-generated
// gossip and checks that anything delivered at the receiver was either
// published locally or present in some incoming message.
func TestEngineQuickProperty(t *testing.T) {
	t.Parallel()
	if err := quick.Check(func(seqs []uint16, payloadByte byte) bool {
		var delivered []proto.Event
		cfg := DefaultConfig()
		e, err := New(1, cfg, func(ev proto.Event) { delivered = append(delivered, ev) }, rng.New(5))
		if err != nil {
			return false
		}
		sent := map[proto.EventID]bool{}
		for i, s := range seqs {
			id := proto.EventID{Origin: 2, Seq: uint32(s%50) + 1}
			sent[id] = true
			g := proto.Gossip{From: 2, Events: []proto.Event{{ID: id, Payload: []byte{payloadByte}}}}
			e.HandleMessageAppend(proto.Message{Kind: proto.GossipMsg, From: 2, To: 1, Gossip: &g}, uint64(i), nil)
		}
		for _, ev := range delivered {
			if !sent[ev.ID] {
				return false
			}
		}
		// Dedup: delivered ids are unique.
		uniq := map[proto.EventID]bool{}
		for _, ev := range delivered {
			if uniq[ev.ID] {
				return false
			}
			uniq[ev.ID] = true
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
