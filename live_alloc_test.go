package lpbcast

import (
	"runtime"
	"testing"
	"time"
)

// consumingTransport is a Serializer transport stub: it fully consumes
// messages before returning (like the UDP transport, which encodes
// datagrams synchronously) and counts what it saw. It lets the alloc gate
// measure the node's own round path — engine tick, burst handling, batch
// send — without socket noise.
type consumingTransport struct {
	messages int
	batches  int
}

func newConsumingTransport() *consumingTransport { return &consumingTransport{} }

func (t *consumingTransport) Send(m Message) error { t.messages++; return nil }

func (t *consumingTransport) SendBatch(msgs []Message) error {
	t.messages += len(msgs)
	t.batches++
	return nil
}

// Serve starts nothing: the tests call the node's handler themselves.
func (t *consumingTransport) Serve(func([]Message)) {}
func (t *consumingTransport) Close() error          { return nil }
func (t *consumingTransport) SerializesOnSend()     {}

// steadyNode builds an unstarted node with a warmed view of 15 peers over
// a consuming transport, then runs a few rounds so every scratch buffer
// reaches steady-state capacity.
func steadyNode(t testing.TB) (*Node, *consumingTransport) {
	t.Helper()
	tr := newConsumingTransport()
	seeds := make([]ProcessID, 0, 15)
	for p := ProcessID(2); p <= 16; p++ {
		seeds = append(seeds, p)
	}
	n, err := NewNode(1, tr, WithSeeds(seeds...))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		n.gossipRound()
	}
	return n, tr
}

// steadyBurst is a converged-system inbound burst: gossips whose events
// and digest entries the receiver already knows.
func steadyBurst(t testing.TB, n *Node) []Message {
	t.Helper()
	ev, err := n.Publish([]byte("steady"))
	if err != nil {
		t.Fatal(err)
	}
	n.gossipRound() // clears the events buffer
	g := &Gossip{
		From:   2,
		Subs:   []ProcessID{2},
		Events: []Event{{ID: ev.ID, Payload: []byte("steady")}},
		Digest: []EventID{ev.ID},
	}
	burst := make([]Message, 0, 3)
	for i := 0; i < 3; i++ {
		burst = append(burst, Message{Kind: GossipMsgKind, From: 2, To: 1, Gossip: g})
	}
	return burst
}

// TestLiveNodeRoundAllocs is the acceptance gate for the v2 runtime: a
// steady-state gossip round — periodic emission plus an inbound burst of
// already-known gossip — must cost at most 2 allocations.
func TestLiveNodeRoundAllocs(t *testing.T) {
	n, tr := steadyNode(t)
	burst := steadyBurst(t, n)
	n.handleBurst(burst) // warm the inbound path too

	allocs := testing.AllocsPerRun(200, func() {
		n.gossipRound()
		n.handleBurst(burst)
	})
	if allocs > 2 {
		t.Errorf("steady-state live round allocates %v times, want <= 2", allocs)
	}
	if tr.messages == 0 || tr.batches == 0 {
		t.Fatalf("transport saw %d messages in %d batches; the round path is not live", tr.messages, tr.batches)
	}
}

// steadyCtlNode is steadyNode with the control plane's latency collector
// attached as the node's tracer, as ClusterConfig.ControlPlane wires it.
func steadyCtlNode(t testing.TB) (*Node, *consumingTransport, *LatencyCollector) {
	t.Helper()
	tr := newConsumingTransport()
	col := NewLatencyCollector()
	seeds := make([]ProcessID, 0, 15)
	for p := ProcessID(2); p <= 16; p++ {
		seeds = append(seeds, p)
	}
	n, err := NewNode(1, tr, WithSeeds(seeds...), WithTracer(col))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		n.gossipRound()
	}
	return n, tr, col
}

// TestLiveNodeRoundAllocsWithControlPlane extends the zero-alloc gate to
// an observable node: with the latency collector recording trace events,
// the steady round must still cost at most 2 allocations — metrics must
// be free on the hot path.
func TestLiveNodeRoundAllocsWithControlPlane(t *testing.T) {
	n, tr, col := steadyCtlNode(t)
	burst := steadyBurst(t, n)
	n.handleBurst(burst)

	allocs := testing.AllocsPerRun(200, func() {
		n.gossipRound()
		n.handleBurst(burst)
	})
	if allocs > 2 {
		t.Errorf("observable steady-state round allocates %v times, want <= 2", allocs)
	}
	if tr.messages == 0 {
		t.Fatal("transport saw no traffic; the round path is not live")
	}
	// The collector really was on the path: the local publish in
	// steadyBurst delivered at the origin and stamped a publish time.
	if _, count, _ := col.Hist(); count != 0 {
		t.Fatalf("single node observed %d remote deliveries", count)
	}
}

// BenchmarkLiveNodeRoundCtl is BenchmarkLiveNodeRound with the control
// plane's latency collector attached; allocs/op must not regress.
func BenchmarkLiveNodeRoundCtl(b *testing.B) {
	n, _, _ := steadyCtlNode(b)
	burst := steadyBurst(b, n)
	n.handleBurst(burst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.gossipRound()
		n.handleBurst(burst)
	}
}

// TestLiveNodeRoundEmitsBatches pins the emission shape: one gossip round
// of fanout F leaves as one SendBatch carrying F messages.
func TestLiveNodeRoundEmitsBatches(t *testing.T) {
	n, tr := steadyNode(t)
	before := tr.batches
	msgsBefore := tr.messages
	n.gossipRound()
	if got := tr.batches - before; got != 1 {
		t.Errorf("round used %d SendBatch calls, want 1", got)
	}
	if got := tr.messages - msgsBefore; got != 3 {
		t.Errorf("round emitted %d messages, want fanout 3", got)
	}
}

// BenchmarkLiveNodeRound measures the v2 node's steady-state gossip round
// (tick emission + inbound burst of known gossip). The interesting number
// is allocs/op: ~0 in emission-reuse mode.
func BenchmarkLiveNodeRound(b *testing.B) {
	n, _ := steadyNode(b)
	burst := steadyBurst(b, n)
	n.handleBurst(burst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.gossipRound()
		n.handleBurst(burst)
	}
}

// BenchmarkLiveNodeRoundLegacy is the pre-v2 shape for comparison: a fresh
// emission slice per tick and one Send per message, as the run loop worked
// before the batched redesign.
func BenchmarkLiveNodeRoundLegacy(b *testing.B) {
	n, tr := steadyNode(b)
	burst := steadyBurst(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.mu.Lock()
		var out []Message
		out = n.engine.TickAppend(n.now(), nil)
		n.mu.Unlock()
		for _, m := range out {
			_ = tr.Send(m)
		}
		for _, m := range burst {
			n.mu.Lock()
			resp := n.engine.HandleMessageAppend(m, n.now(), nil)
			n.mu.Unlock()
			for _, r := range resp {
				_ = tr.Send(r)
			}
		}
	}
}

// TestDroppedDeliveriesCountsEvictions: when the application stops
// draining Deliveries, every overwritten delivery counts as dropped — the
// eviction of the oldest buffered event is itself a loss.
func TestDroppedDeliveriesCountsEvictions(t *testing.T) {
	tr := newConsumingTransport()
	n, err := NewNode(1, tr, WithDeliveryQueue(4))
	if err != nil {
		t.Fatal(err)
	}
	const published = 10
	for i := 0; i < published; i++ {
		if _, err := n.Publish([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// 4 slots survive; the other deliveries were evicted to admit newer
	// ones and must all be counted.
	if got, want := n.DroppedDeliveries(), uint64(published-4); got != want {
		t.Errorf("DroppedDeliveries = %d, want %d", got, want)
	}
	if got := len(n.Deliveries()); got != 4 {
		t.Errorf("queue holds %d deliveries, want 4", got)
	}
	// The freshest events won: the head of the queue advanced.
	ev := <-n.Deliveries()
	if ev.Payload[0] != byte(published-4) {
		t.Errorf("oldest surviving delivery = %d, want %d", ev.Payload[0], published-4)
	}
}

// udpNode binds a loopback UDP transport and builds (does not start) a node
// on it that delivers by callback, as a long-running deployment would.
func udpNode(t testing.TB, id ProcessID, opts ...Option) (*Node, *UDPTransport) {
	t.Helper()
	tr, err := NewUDPTransport(id, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	opts = append([]Option{WithDeliveryHandler(func(Event) {})}, opts...)
	n, err := NewNode(id, tr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, tr
}

// liveHeap is the heap in use after two collections: what a sync.Pool held
// at the first is only freed by the second.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIdleUDPNodeHeap bounds what a node costs before it has seen traffic:
// the socket and an engine that holds no storage for events it has not
// received. Nothing queues between the socket and the node, and the one
// arena the reader decodes into grows only with traffic. (The node's inbox
// was once a channel of 1024 messages by value, 112 KB on its own; then 128
// pointers to recycled batches.) Not parallel: it reads the heap.
func TestIdleUDPNodeHeap(t *testing.T) {
	const nodes = 8
	before := liveHeap()
	keep := make([]*Node, 0, nodes)
	for i := 0; i < nodes; i++ {
		n, _ := udpNode(t, ProcessID(i+1))
		keep = append(keep, n)
	}
	per := (int64(liveHeap()) - int64(before)) / nodes
	runtime.KeepAlive(keep)
	t.Logf("%d B of heap per idle UDP node", per)
	if per >= 8<<10 {
		t.Errorf("an idle UDP node holds %d B of heap, want under 8 KB", per)
	}
}

// TestLiveUDPRoundAllocs takes the allocation gate of
// TestLiveNodeRoundAllocs through the real stack: two started nodes
// gossiping over loopback sockets — encode, sendto, recvfrom, decode into the
// reader's arena, handler, engine, reset — must settle at no more than 2
// allocations per node-round. Not parallel: it reads the process's
// allocation counter.
func TestLiveUDPRoundAllocs(t *testing.T) {
	const interval = 2 * time.Millisecond
	a, ta := udpNode(t, 1, WithSeeds(2), WithGossipInterval(interval))
	b, tb := udpNode(t, 2, WithSeeds(1), WithGossipInterval(interval))
	if err := ta.AddPeer(2, tb.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddPeer(1, ta.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	for i := 0; i < 5; i++ {
		if _, err := a.Publish([]byte("warm")); err != nil {
			t.Fatal(err)
		}
	}
	rounds := func() uint64 { return a.Stats().GossipsSent + b.Stats().GossipsSent }
	waitRounds := func(target uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for rounds() < target {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d rounds ran", rounds(), target)
			}
			time.Sleep(interval)
		}
	}
	waitRounds(100) // events delivered and out of the buffers, scratch at size
	if got := b.Stats().EventsDelivered; got != 5 {
		t.Fatalf("node 2 delivered %d of 5 events during warm-up", got)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := rounds()
	waitRounds(start + 400)
	ran := rounds() - start
	runtime.ReadMemStats(&after)

	if st := tb.Stats(); st.Received == 0 || st.Dropped != 0 || st.DecodeErrs != 0 {
		t.Fatalf("transport stats %+v: the path is not live", st)
	}
	perRound := float64(after.Mallocs-before.Mallocs) / float64(ran)
	t.Logf("%d allocations over %d node-rounds: %.2f per node-round", after.Mallocs-before.Mallocs, ran, perRound)
	if perRound > 2 {
		t.Errorf("a live UDP node-round allocates %.2f times, want <= 2", perRound)
	}
}
