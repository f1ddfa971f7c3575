package lpbcast

import (
	"errors"
	"testing"
	"time"
)

func attach(t *testing.T, n *Network, id ProcessID) Transport {
	t.Helper()
	ep, err := n.Attach(id)
	if err != nil {
		t.Fatalf("attach %v: %v", id, err)
	}
	return ep
}

func TestNewNodeValidation(t *testing.T) {
	t.Parallel()
	n := NewInprocNetwork(InprocConfig{})
	defer n.Close()
	if _, err := NewNode(0, attach(t, n, 7)); err == nil {
		t.Error("nil id accepted")
	}
	if _, err := NewNode(1, nil); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewNode(2, attach(t, n, 2), WithGossipInterval(0)); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewNode(3, attach(t, n, 3), WithFanout(0)); err == nil {
		t.Error("invalid engine config accepted")
	}
	for i, size := range []int{-1, 1 << 31} {
		if _, err := NewNode(ProcessID(4+i), attach(t, n, ProcessID(4+i)), WithArchiveSize(size)); err == nil {
			t.Errorf("archive size %d accepted", size)
		}
	}
}

func TestTwoNodeDelivery(t *testing.T) {
	t.Parallel()
	network := NewInprocNetwork(InprocConfig{})
	defer network.Close()
	a, err := NewNode(1, attach(t, network, 1),
		WithGossipInterval(5*time.Millisecond), WithSeeds(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(2, attach(t, network, 2),
		WithGossipInterval(5*time.Millisecond), WithSeeds(1))
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()

	ev, err := a.Publish([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.Deliveries():
		if got.ID != ev.ID || string(got.Payload) != "hello" {
			t.Fatalf("delivered %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("b never delivered the event")
	}
}

func TestDeliveryHandler(t *testing.T) {
	t.Parallel()
	network := NewInprocNetwork(InprocConfig{})
	defer network.Close()
	got := make(chan Event, 8)
	a, err := NewNode(1, attach(t, network, 1),
		WithGossipInterval(5*time.Millisecond),
		WithDeliveryHandler(func(ev Event) { got <- ev }))
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	defer a.Close()
	if a.Deliveries() != nil {
		t.Error("Deliveries channel should be nil with a handler")
	}
	if _, err := a.Publish([]byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-got:
		if string(ev.Payload) != "x" {
			t.Fatalf("handler got %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("handler never invoked")
	}
}

func TestJoinAndWait(t *testing.T) {
	t.Parallel()
	network := NewInprocNetwork(InprocConfig{})
	defer network.Close()
	a, err := NewNode(1, attach(t, network, 1),
		WithGossipInterval(5*time.Millisecond), WithSeeds(2))
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	defer a.Close()
	// Late joiner: knows only node 1.
	j, err := NewNode(9, attach(t, network, 9), WithGossipInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	j.Start()
	defer j.Close()
	if err := j.JoinAndWait(1, 3*time.Second); err != nil {
		t.Fatalf("JoinAndWait: %v", err)
	}
	if j.Stats().GossipsReceived == 0 && len(j.View()) <= 1 {
		t.Fatal("join reported success without evidence of membership")
	}
}

func TestJoinValidation(t *testing.T) {
	t.Parallel()
	network := NewInprocNetwork(InprocConfig{})
	defer network.Close()
	a, err := NewNode(1, attach(t, network, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Join(1); err == nil {
		t.Error("join via self accepted")
	}
	if err := a.Join(NilProcess); err == nil {
		t.Error("join via nil accepted")
	}
}

func TestLeaveSpreadsUnsubscription(t *testing.T) {
	t.Parallel()
	network := NewInprocNetwork(InprocConfig{})
	defer network.Close()
	interval := 5 * time.Millisecond
	a, _ := NewNode(1, attach(t, network, 1), WithGossipInterval(interval), WithSeeds(2))
	b, _ := NewNode(2, attach(t, network, 2), WithGossipInterval(interval), WithSeeds(1))
	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()

	// Wait until they know each other.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(b.View()) > 0 {
			break
		}
		time.Sleep(interval)
	}
	if err := b.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	// a's view must drop node 2 once the unsubscription gossips through.
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		gone := true
		for _, p := range a.View() {
			if p == 2 {
				gone = false
			}
		}
		if gone {
			return
		}
		time.Sleep(interval)
	}
	t.Fatalf("node 2 still in a's view after leave: %v", a.View())
}

func TestPublishAfterCloseFails(t *testing.T) {
	t.Parallel()
	network := NewInprocNetwork(InprocConfig{})
	defer network.Close()
	a, err := NewNode(1, attach(t, network, 1))
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Publish(nil); err == nil {
		t.Error("publish after close succeeded")
	}
	if err := a.Leave(); err == nil {
		t.Error("leave after close succeeded")
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestCloseIsPromptWithoutStart(t *testing.T) {
	t.Parallel()
	network := NewInprocNetwork(InprocConfig{})
	defer network.Close()
	a, err := NewNode(1, attach(t, network, 1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close hung on an unstarted node")
	}
}

func TestNodeOverUDP(t *testing.T) {
	t.Parallel()
	ta, err := NewUDPTransport(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewUDPTransport(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if err := ta.AddPeer(2, tb.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddPeer(1, ta.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	a, err := NewNode(1, ta, WithGossipInterval(5*time.Millisecond), WithSeeds(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(2, tb, WithGossipInterval(5*time.Millisecond), WithSeeds(1))
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()
	ev, err := a.Publish([]byte("udp payload"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.Deliveries():
		if got.ID != ev.ID || string(got.Payload) != "udp payload" {
			t.Fatalf("delivered %+v", got)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("delivery over UDP timed out")
	}
}

func TestRetransmissionRecoversLostPayload(t *testing.T) {
	t.Parallel()
	// With 30% loss, digests eventually advertise events whose payload
	// gossip was dropped; retransmission (default on) must recover them.
	network := NewInprocNetwork(InprocConfig{LossProbability: 0.3, Seed: 11})
	defer network.Close()
	interval := 3 * time.Millisecond
	a, _ := NewNode(1, attach(t, network, 1), WithGossipInterval(interval), WithSeeds(2, 3))
	b, _ := NewNode(2, attach(t, network, 2), WithGossipInterval(interval), WithSeeds(1, 3))
	c, _ := NewNode(3, attach(t, network, 3), WithGossipInterval(interval), WithSeeds(1, 2))
	for _, n := range []*Node{a, b, c} {
		n.Start()
		defer n.Close()
	}
	var ids []EventID
	for i := 0; i < 10; i++ {
		ev, err := a.Publish([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ev.ID)
	}
	// All events reach b and c despite the loss.
	got := map[EventID]bool{}
	deadline := time.After(10 * time.Second)
	for len(got) < len(ids) {
		select {
		case ev := <-b.Deliveries():
			got[ev.ID] = true
		case <-deadline:
			t.Fatalf("b delivered %d of %d events", len(got), len(ids))
		}
	}
}

func TestStatsProgress(t *testing.T) {
	t.Parallel()
	network := NewInprocNetwork(InprocConfig{})
	defer network.Close()
	a, _ := NewNode(1, attach(t, network, 1), WithGossipInterval(3*time.Millisecond), WithSeeds(2))
	b, _ := NewNode(2, attach(t, network, 2), WithGossipInterval(3*time.Millisecond), WithSeeds(1))
	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if a.Stats().GossipsSent > 0 && b.Stats().GossipsReceived > 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no gossip flow: a=%+v b=%+v", a.Stats(), b.Stats())
}

func TestWeightedViewOptionRuns(t *testing.T) {
	t.Parallel()
	network := NewInprocNetwork(InprocConfig{})
	defer network.Close()
	n, err := NewNode(1, attach(t, network, 1),
		WithWeightedViews(), WithViewSize(4), WithFanout(2),
		WithCompactDigest(), WithPrioritary(2), WithMaxEventIDs(10),
		WithMaxEvents(10), WithUnsubTTL(time.Minute), WithDeliveryQueue(8),
		WithoutRetransmission())
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Close()
	if n.ID() != 1 {
		t.Fatal("ID wrong")
	}
	view := n.View()
	if len(view) != 1 || view[0] != 2 {
		t.Fatalf("prioritary not pre-seeded: %v", view)
	}
}

func TestErrorsAreErrors(t *testing.T) {
	t.Parallel()
	var err error = errors.New("x")
	_ = err
}

func TestLoggerBackedRecovery(t *testing.T) {
	t.Parallel()
	// rpbcast-style third phase over the live runtime: the publisher's own
	// archive is tiny, so late receivers can only recover old payloads
	// from the dedicated logger node.
	network := NewInprocNetwork(InprocConfig{LossProbability: 0.2, Seed: 21})
	defer network.Close()
	interval := 3 * time.Millisecond
	logger, err := NewNode(9, attach(t, network, 9),
		WithGossipInterval(interval), WithSeeds(1, 2), WithArchiveSize(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewNode(1, attach(t, network, 1),
		WithGossipInterval(interval), WithSeeds(2, 9), WithArchiveSize(4))
	if err != nil {
		t.Fatal(err)
	}
	recv, err := NewNode(2, attach(t, network, 2),
		WithGossipInterval(interval), WithSeeds(1, 9), WithLogger(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Node{logger, pub, recv} {
		n.Start()
		defer n.Close()
	}
	var ids []EventID
	for i := 0; i < 30; i++ {
		ev, err := pub.Publish([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ev.ID)
	}
	got := map[EventID]bool{}
	deadline := time.After(15 * time.Second)
	for len(got) < len(ids) {
		select {
		case ev := <-recv.Deliveries():
			got[ev.ID] = true
		case <-deadline:
			t.Fatalf("receiver got %d of %d events (logger recovery failed)", len(got), len(ids))
		}
	}
}

func TestTracerCapturesProtocolActivity(t *testing.T) {
	t.Parallel()
	network := NewInprocNetwork(InprocConfig{})
	defer network.Close()
	ring := NewTraceRing(512)
	counts := NewTraceCounters()
	interval := 3 * time.Millisecond
	a, err := NewNode(1, attach(t, network, 1),
		WithGossipInterval(interval), WithSeeds(2),
		WithTracer(TraceMulti(ring, counts)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(2, attach(t, network, 2),
		WithGossipInterval(interval), WithSeeds(1))
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()
	if _, err := a.Publish([]byte("traced")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if counts.Count(TraceGossipSent) > 0 &&
			counts.Count(TraceGossipReceived) > 0 &&
			counts.Count(TraceDeliver) > 0 {
			break
		}
		time.Sleep(interval)
	}
	if counts.Count(TraceDeliver) == 0 {
		t.Fatal("no delivery traced")
	}
	if ring.Total() == 0 || len(ring.Snapshot()) == 0 {
		t.Fatal("ring captured nothing")
	}
}

func TestWithMembershipEveryOption(t *testing.T) {
	t.Parallel()
	network := NewInprocNetwork(InprocConfig{})
	defer network.Close()
	n, err := NewNode(1, attach(t, network, 1), WithMembershipEvery(3))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := NewNode(2, attach(t, network, 2), WithMembershipEvery(-1)); err == nil {
		t.Fatal("negative MembershipEvery accepted")
	}
}
