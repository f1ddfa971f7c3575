package pbcast

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

func newNode(t *testing.T, self proto.ProcessID, mutate func(*Config)) (*Node, *[]proto.Event) {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	var delivered []proto.Event
	n, err := New(self, cfg, func(ev proto.Event) { delivered = append(delivered, ev) }, rng.New(uint64(self)*13+5))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n, &delivered
}

func TestConfigValidate(t *testing.T) {
	t.Parallel()
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero fanout", func(c *Config) { c.Fanout = 0 }},
		{"zero store", func(c *Config) { c.MaxStore = 0 }},
		{"negative hops", func(c *Config) { c.HopLimit = -1 }},
		{"negative reps", func(c *Config) { c.Repetitions = -1 }},
		{"fanout over view", func(c *Config) { c.Fanout = c.Membership.MaxView + 1 }},
		{"bad membership", func(c *Config) { c.Membership.MaxView = 0 }},
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
	// TotalView mode does not validate membership at all.
	cfg := Config{Fanout: 50, MaxStore: 10, Mode: TotalView}
	if err := cfg.Validate(); err != nil {
		t.Errorf("total-view config rejected: %v", err)
	}
}

func TestViewModeString(t *testing.T) {
	t.Parallel()
	if TotalView.String() != "total" || PartialView.String() != "partial" {
		t.Error("ViewMode.String wrong")
	}
	if ViewMode(9).String() != "viewmode(9)" {
		t.Error("unknown mode string wrong")
	}
}

func TestPublishDeliversLocally(t *testing.T) {
	t.Parallel()
	n, delivered := newNode(t, 1, nil)
	ev := n.Publish([]byte("m"))
	if len(*delivered) != 1 || (*delivered)[0].ID != ev.ID {
		t.Fatalf("delivered = %v", *delivered)
	}
	if !n.Delivered(ev.ID) {
		t.Fatal("Delivered() = false for published message")
	}
	if n.Stats().MessagesPublished != 1 {
		t.Fatalf("stats = %+v", n.Stats())
	}
}

func TestFirstPhaseDeliversOnce(t *testing.T) {
	t.Parallel()
	n, delivered := newNode(t, 1, nil)
	ev := proto.Event{ID: proto.EventID{Origin: 2, Seq: 1}, Payload: []byte("x")}
	n.HandleFirstPhase(ev)
	n.HandleFirstPhase(ev)
	if len(*delivered) != 1 {
		t.Fatalf("delivered %d times", len(*delivered))
	}
	if n.Stats().DuplicatesDropped != 1 {
		t.Fatalf("stats = %+v", n.Stats())
	}
}

func TestTickGossipsDigest(t *testing.T) {
	t.Parallel()
	n, _ := newNode(t, 1, nil)
	n.Seed([]proto.ProcessID{2, 3, 4, 5, 6})
	ev := n.Publish([]byte("x"))
	msgs := n.TickAppend(1, nil)
	if len(msgs) != 5 {
		t.Fatalf("sent %d gossips, want fanout 5", len(msgs))
	}
	for _, m := range msgs {
		if m.Kind != proto.GossipMsg {
			t.Fatalf("kind = %v", m.Kind)
		}
		if len(m.Gossip.Digest) != 1 || m.Gossip.Digest[0] != ev.ID {
			t.Fatalf("digest = %v", m.Gossip.Digest)
		}
		if len(m.Gossip.Events) != 0 {
			t.Fatal("pbcast gossip must not push payloads")
		}
		// Partial-view mode piggybacks subscriptions.
		found := false
		for _, p := range m.Gossip.Subs {
			if p == 1 {
				found = true
			}
		}
		if !found {
			t.Fatal("partial-view gossip missing self subscription")
		}
	}
}

func TestTotalViewTargets(t *testing.T) {
	t.Parallel()
	cfg := Config{Fanout: 3, MaxStore: 10, Mode: TotalView}
	n, err := New(1, cfg, nil, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if msgs := n.TickAppend(1, nil); msgs != nil {
		t.Fatalf("tick without view emitted %v", msgs)
	}
	n.SetTotalView([]proto.ProcessID{1, 2, 3, 4, 5})
	if len(n.View()) != 4 {
		t.Fatalf("view = %v (self must be excluded)", n.View())
	}
	msgs := n.TickAppend(2, nil)
	if len(msgs) != 3 {
		t.Fatalf("sent %d gossips", len(msgs))
	}
	seen := map[proto.ProcessID]bool{}
	for _, m := range msgs {
		if m.To == 1 || seen[m.To] {
			t.Fatalf("bad target set %v", msgs)
		}
		seen[m.To] = true
	}
}

func TestPullRoundTripTakesOneTick(t *testing.T) {
	t.Parallel()
	// p1 has the message; p2 hears the digest, solicits, and receives the
	// retransmission with p1's NEXT tick — the modelled pull latency.
	p1, _ := newNode(t, 1, nil)
	p2, delivered := newNode(t, 2, nil)
	p1.Seed([]proto.ProcessID{2})
	p2.Seed([]proto.ProcessID{1})
	ev := p1.Publish([]byte("pull me"))

	gossips := p1.TickAppend(1, nil)
	var requests []proto.Message
	for _, g := range gossips {
		if g.To == 2 {
			requests = append(requests, p2.HandleMessageAppend(g, 1, nil)...)
		}
	}
	if len(requests) != 1 || requests[0].Kind != proto.RetransmitRequestMsg {
		t.Fatalf("requests = %+v", requests)
	}
	if out := p1.HandleMessageAppend(requests[0], 1, nil); out != nil {
		t.Fatalf("request answered synchronously: %+v", out)
	}
	if len(*delivered) != 0 {
		t.Fatal("delivered before the reply tick")
	}
	// The reply is flushed with p1's next tick.
	next := p1.TickAppend(2, nil)
	var reply *proto.Message
	for i := range next {
		if next[i].Kind == proto.RetransmitReplyMsg {
			reply = &next[i]
		}
	}
	if reply == nil {
		t.Fatalf("no reply in %+v", next)
	}
	if len(reply.ReplyHops) != 1 || reply.ReplyHops[0] != 1 {
		t.Fatalf("reply hops = %v", reply.ReplyHops)
	}
	p2.HandleMessageAppend(*reply, 2, nil)
	if len(*delivered) != 1 || (*delivered)[0].ID != ev.ID {
		t.Fatalf("delivered = %v", *delivered)
	}
}

func TestHopLimitRefusesService(t *testing.T) {
	t.Parallel()
	n, _ := newNode(t, 1, func(c *Config) { c.HopLimit = 2 })
	ev := proto.Event{ID: proto.EventID{Origin: 9, Seq: 1}}
	// Receive the message at the hop limit.
	n.HandleMessageAppend(proto.Message{
		Kind:      proto.RetransmitReplyMsg,
		From:      3,
		To:        1,
		Reply:     []proto.Event{ev},
		ReplyHops: []uint32{2},
	}, 1, nil)
	if !n.Delivered(ev.ID) {
		t.Fatal("message at hop limit not delivered")
	}
	// It must not be advertised...
	n.Seed([]proto.ProcessID{2, 3, 4, 5, 6})
	msgs := n.TickAppend(2, nil)
	if len(msgs[0].Gossip.Digest) != 0 {
		t.Fatalf("hop-limited message advertised: %v", msgs[0].Gossip.Digest)
	}
	// ...nor served.
	n.HandleMessageAppend(proto.Message{
		Kind:    proto.RetransmitRequestMsg,
		From:    2,
		To:      1,
		Request: []proto.EventID{ev.ID},
	}, 3, nil)
	if got := n.TickAppend(4, nil); len(got) != 5 { // only the 5 digests, no reply
		for _, m := range got {
			if m.Kind == proto.RetransmitReplyMsg {
				t.Fatal("hop-limited message served")
			}
		}
	}
	if n.Stats().HopLimitRefusals != 1 {
		t.Fatalf("stats = %+v", n.Stats())
	}
}

func TestRepetitionLimitStopsAdvertising(t *testing.T) {
	t.Parallel()
	n, _ := newNode(t, 1, func(c *Config) { c.Repetitions = 2 })
	n.Seed([]proto.ProcessID{2, 3, 4, 5, 6})
	n.Publish([]byte("x"))
	for round := uint64(1); round <= 2; round++ {
		msgs := n.TickAppend(round, nil)
		if len(msgs[0].Gossip.Digest) != 1 {
			t.Fatalf("round %d: digest = %v", round, msgs[0].Gossip.Digest)
		}
	}
	msgs := n.TickAppend(3, nil)
	if len(msgs[0].Gossip.Digest) != 0 {
		t.Fatal("message advertised beyond repetition limit")
	}
}

func TestUnlimitedWhenZero(t *testing.T) {
	t.Parallel()
	n, _ := newNode(t, 1, func(c *Config) { c.HopLimit = 0; c.Repetitions = 0 })
	n.Seed([]proto.ProcessID{2, 3, 4, 5, 6})
	n.Publish([]byte("x"))
	for round := uint64(1); round <= 10; round++ {
		msgs := n.TickAppend(round, nil)
		if len(msgs[0].Gossip.Digest) != 1 {
			t.Fatalf("round %d: unlimited message not advertised", round)
		}
	}
}

func TestStoreEviction(t *testing.T) {
	t.Parallel()
	n, _ := newNode(t, 1, func(c *Config) { c.MaxStore = 3 })
	var ids []proto.EventID
	for i := 0; i < 5; i++ {
		ev := n.Publish([]byte{byte(i)})
		ids = append(ids, ev.ID)
	}
	if n.Delivered(ids[0]) || n.Delivered(ids[1]) {
		t.Fatal("oldest messages not evicted")
	}
	if !n.Delivered(ids[4]) {
		t.Fatal("newest message evicted")
	}
	// A solicitation for an evicted message goes unanswered.
	n.HandleMessageAppend(proto.Message{
		Kind:    proto.RetransmitRequestMsg,
		From:    2,
		To:      1,
		Request: []proto.EventID{ids[0]},
	}, 1, nil)
	for _, m := range n.TickAppend(2, nil) {
		if m.Kind == proto.RetransmitReplyMsg {
			t.Fatal("evicted message served")
		}
	}
}

func TestMembershipPiggybackUpdatesView(t *testing.T) {
	t.Parallel()
	n, _ := newNode(t, 1, nil)
	n.HandleMessageAppend(proto.Message{Kind: proto.GossipMsg, From: 2, To: 1, Gossip: &proto.Gossip{
		From: 2,
		Subs: []proto.ProcessID{2, 3},
	}}, 1, nil)
	view := n.View()
	if len(view) != 2 {
		t.Fatalf("view = %v", view)
	}
	n.HandleMessageAppend(proto.Message{Kind: proto.GossipMsg, From: 2, To: 1, Gossip: &proto.Gossip{
		From:   2,
		Unsubs: []proto.Unsubscription{{Process: 3, Stamp: 2}},
	}}, 2, nil)
	for _, p := range n.View() {
		if p == 3 {
			t.Fatal("unsubscribed process still in view")
		}
	}
	// Subscribe messages too.
	n.HandleMessageAppend(proto.Message{Kind: proto.SubscribeMsg, From: 7, To: 1, Subscriber: 7}, 3, nil)
	found := false
	for _, p := range n.View() {
		if p == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("subscribe message ignored")
	}
}

func TestMalformedMessagesIgnored(t *testing.T) {
	t.Parallel()
	n, _ := newNode(t, 1, nil)
	if out := n.HandleMessageAppend(proto.Message{Kind: proto.GossipMsg}, 1, nil); out != nil {
		t.Fatal("nil gossip produced output")
	}
	if out := n.HandleMessageAppend(proto.Message{Kind: proto.MessageKind(88)}, 1, nil); out != nil {
		t.Fatal("unknown kind produced output")
	}
}

func TestSmallClusterConverges(t *testing.T) {
	t.Parallel()
	// 10 partial-view pbcast nodes, full mesh seeds: a published message
	// reaches everyone within a few pull rounds.
	const n = 10
	nodes := make([]*Node, n)
	delivered := make([]map[proto.EventID]bool, n)
	root := rng.New(77)
	for i := 0; i < n; i++ {
		i := i
		delivered[i] = map[proto.EventID]bool{}
		cfg := DefaultConfig()
		cfg.Membership.MaxView = 9
		cfg.Fanout = 3
		node, err := New(proto.ProcessID(i+1), cfg, func(ev proto.Event) { delivered[i][ev.ID] = true }, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		var seeds []proto.ProcessID
		for j := 0; j < n; j++ {
			if j != i {
				seeds = append(seeds, proto.ProcessID(j+1))
			}
		}
		node.Seed(seeds)
		nodes[i] = node
	}
	ev := nodes[0].Publish([]byte("to all"))
	for round := uint64(1); round <= 12; round++ {
		var wire []proto.Message
		for _, node := range nodes {
			wire = append(wire, node.TickAppend(round, nil)...)
		}
		for len(wire) > 0 {
			m := wire[0]
			wire = wire[1:]
			if m.To >= 1 && int(m.To) <= n {
				wire = append(wire, nodes[m.To-1].HandleMessageAppend(m, round, nil)...)
			}
		}
	}
	for i := range nodes {
		if !delivered[i][ev.ID] && i != 0 {
			t.Errorf("node %d never delivered the message", i+1)
		}
	}
}

func BenchmarkTickWithStore(b *testing.B) {
	n, err := New(1, DefaultConfig(), nil, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	n.Seed([]proto.ProcessID{2, 3, 4, 5, 6, 7})
	for i := 0; i < 60; i++ {
		n.Publish([]byte("x"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.TickAppend(uint64(i), nil)
	}
}
