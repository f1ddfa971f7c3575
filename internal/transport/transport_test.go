package transport

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
)

// receiver is what the tests read from: the Recv adapter of either
// transport.
type receiver interface {
	Recv() <-chan proto.Message
}

// endpoint is what the contract tests drive: either transport.
type endpoint interface {
	Transport
	StatsProvider
	receiver
}

// transports builds, for each transport, two endpoints of processes 1 and 2
// that reach each other. The contract tests run against both.
var transports = []struct {
	name string
	pair func(t *testing.T) (endpoint, endpoint)
}{
	{"udp", func(t *testing.T) (endpoint, endpoint) { a, b := newUDPPair(t); return a, b }},
	{"inproc", func(t *testing.T) (endpoint, endpoint) { a, b := newInprocPair(t); return a, b }},
}

// newInprocPair attaches processes 1 and 2 to a network of their own.
func newInprocPair(t *testing.T) (*Endpoint, *Endpoint) {
	t.Helper()
	n := NewNetwork(NetworkConfig{})
	t.Cleanup(func() { n.Close() })
	a, err := n.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func recvOne(t *testing.T, tr receiver, timeout time.Duration) proto.Message {
	t.Helper()
	select {
	case m, ok := <-tr.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		return m
	case <-time.After(timeout):
		t.Fatal("timed out waiting for message")
		return proto.Message{}
	}
}

func subscribeMsg(from, to proto.ProcessID) proto.Message {
	return proto.Message{Kind: proto.SubscribeMsg, From: from, To: to, Subscriber: from}
}

func TestInprocDelivery(t *testing.T) {
	t.Parallel()
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	a, err := n.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.id != 1 {
		t.Fatalf("id = %v", a.id)
	}
	if err := a.Send(subscribeMsg(1, 2)); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b, time.Second)
	if m.Kind != proto.SubscribeMsg || m.From != 1 {
		t.Fatalf("got %+v", m)
	}
}

func TestInprocFillsInSender(t *testing.T) {
	t.Parallel()
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	msg := subscribeMsg(0, 2) // From unset
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b, time.Second); got.From != 1 {
		t.Fatalf("From = %v, want 1", got.From)
	}
}

func TestInprocDuplicateAttach(t *testing.T) {
	t.Parallel()
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	if _, err := n.Attach(1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(1); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
}

func TestInprocUnknownPeerDropsSilently(t *testing.T) {
	t.Parallel()
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	a, _ := n.Attach(1)
	if err := a.Send(subscribeMsg(1, 99)); err != nil {
		t.Fatalf("send to unknown peer errored: %v", err)
	}
	if st := n.Stats(); st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}
}

func TestInprocLossInjection(t *testing.T) {
	t.Parallel()
	n := NewNetwork(NetworkConfig{
		Loss: fault.NewBernoulli(1.0, rng.New(1)), // drop everything
	})
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	for i := 0; i < 10; i++ {
		if err := a.Send(subscribeMsg(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case m := <-b.Recv():
		t.Fatalf("message got through a 100%% lossy network: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	if st := n.Stats(); st.Sent != 10 || st.Dropped != 10 {
		t.Fatalf("stats = %d sent, %d dropped", st.Sent, st.Dropped)
	}
}

func TestInprocLatency(t *testing.T) {
	t.Parallel()
	n := NewNetwork(NetworkConfig{MinDelay: 30 * time.Millisecond, MaxDelay: 40 * time.Millisecond})
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	start := time.Now()
	if err := a.Send(subscribeMsg(1, 2)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, time.Second)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want ≥ ~30ms", elapsed)
	}
}

// TestInprocQueueOverflow: an endpoint no one serves queues inboxLen
// datagrams, and every message of each later datagram is dropped and counted
// as SendBatch returns. Served, the endpoint hands over what it queued.
func TestInprocQueueOverflow(t *testing.T) {
	t.Parallel()
	a, b := newInprocPair(t)
	burst := []proto.Message{subscribeMsg(1, 2), subscribeMsg(1, 2)} // one datagram
	const extra = 3
	for k := 0; k < inboxLen+extra; k++ {
		if err := a.SendBatch(burst); err != nil {
			t.Fatal(err)
		}
	}
	if st := a.Stats(); st.Datagrams != inboxLen+extra || st.Dropped != extra*uint64(len(burst)) {
		t.Fatalf("stats = %+v, want %d datagrams and the %d messages of the last %d dropped",
			st, inboxLen+extra, extra*len(burst), extra)
	}
	var got atomic.Int64
	b.Serve(func(msgs []proto.Message) { got.Add(int64(len(msgs))) })
	want := int64(inboxLen * len(burst))
	eventually(t, "the queued datagrams", func() bool { return got.Load() == want })
}

func TestInprocCloseEndpoint(t *testing.T) {
	t.Parallel()
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-b.Recv(); ok {
		t.Fatal("recv channel not closed")
	}
	// Sending to the departed endpoint drops silently.
	if err := a.Send(subscribeMsg(1, 2)); err != nil {
		t.Fatal(err)
	}
	// Re-attach with the same id is allowed after close.
	if _, err := n.Attach(2); err != nil {
		t.Fatalf("re-attach failed: %v", err)
	}
}

func TestInprocNetworkClose(t *testing.T) {
	t.Parallel()
	n := NewNetwork(NetworkConfig{})
	a, _ := n.Attach(1)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(subscribeMsg(1, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
	if _, err := n.Attach(3); !errors.Is(err, ErrClosed) {
		t.Fatalf("attach after close = %v, want ErrClosed", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

// TestInprocConcurrentSenders: bursts from concurrent senders to one
// endpoint each cross as one datagram, and every message arrives.
func TestInprocConcurrentSenders(t *testing.T) {
	t.Parallel()
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	dst, _ := n.Attach(100)
	var got atomic.Int64
	dst.Serve(func(msgs []proto.Message) { got.Add(int64(len(msgs))) })
	// 80 datagrams in all: fewer than the queue holds, so none is lost
	// however far the delivery goroutine falls behind.
	const senders, bursts, per = 8, 10, 10
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := n.Attach(proto.ProcessID(s + 1))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ep *Endpoint) {
			defer wg.Done()
			burst := make([]proto.Message, per)
			for i := 0; i < bursts; i++ {
				for j := range burst {
					burst[j] = subscribeMsg(ep.id, 100)
				}
				_ = ep.SendBatch(burst)
			}
		}(ep)
	}
	wg.Wait()
	if st := n.Stats(); st.Sent != senders*bursts*per || st.Datagrams != senders*bursts || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want %d messages sent in %d datagrams, none dropped",
			st, senders*bursts*per, senders*bursts)
	}
	eventually(t, "every message", func() bool { return got.Load() == senders*bursts*per })
}

func TestUDPRoundTrip(t *testing.T) {
	t.Parallel()
	a, err := NewUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.AddPeer(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	g := proto.Gossip{From: 1, Subs: []proto.ProcessID{1}, Events: []proto.Event{
		{ID: proto.EventID{Origin: 1, Seq: 1}, Payload: []byte("over udp")},
	}}
	if err := a.Send(proto.Message{Kind: proto.GossipMsg, From: 1, To: 2, Gossip: &g}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b, 2*time.Second)
	if m.Kind != proto.GossipMsg || string(m.Gossip.Events[0].Payload) != "over udp" {
		t.Fatalf("got %+v", m)
	}
}

func TestUDPLearnsPeerFromTraffic(t *testing.T) {
	t.Parallel()
	a, err := NewUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// b has no directory entry for 1 until 1 writes to it.
	if err := b.Send(subscribeMsg(2, 1)); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send to unknown peer = %v, want ErrUnknownPeer", err)
	}
	if err := a.AddPeer(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(subscribeMsg(1, 2)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, 2*time.Second)
	// Now b can reply without explicit AddPeer.
	if err := b.Send(subscribeMsg(2, 1)); err != nil {
		t.Fatalf("reply failed: %v", err)
	}
	m := recvOne(t, a, 2*time.Second)
	if m.From != 2 {
		t.Fatalf("reply from %v", m.From)
	}
}

func TestUDPIgnoresGarbageDatagrams(t *testing.T) {
	t.Parallel()
	b, err := NewUDP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := make(chan []proto.Message, 1)
	b.Serve(func(msgs []proto.Message) {
		select {
		case got <- cloneAll(msgs):
		default:
		}
	})
	conn, err := net.Dial("udp", b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("not a protocol message")); err != nil {
		t.Fatal(err)
	}
	// Give the reader a moment, then check the failure counter.
	deadline := time.Now().Add(time.Second)
	for {
		if b.Stats().DecodeErrs == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("decode error not counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case msgs := <-got:
		t.Fatalf("garbage decoded into %+v", msgs)
	default:
	}
	if st := b.Stats(); st.Received != 0 {
		t.Errorf("garbage counted as %d received messages", st.Received)
	}
}

func TestUDPCloseIdempotent(t *testing.T) {
	t.Parallel()
	u, err := NewUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	if err := u.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := u.Send(subscribeMsg(1, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v", err)
	}
	if err := u.AddPeer(2, "127.0.0.1:9"); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddPeer after close = %v", err)
	}
}

func TestUDPBadAddresses(t *testing.T) {
	t.Parallel()
	if _, err := NewUDP(1, "not an address"); err == nil {
		t.Fatal("NewUDP accepted a bad address")
	}
	u, err := NewUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.AddPeer(2, "::bad::"); err == nil {
		t.Fatal("AddPeer accepted a bad address")
	}
}

// TestInprocSendBatch routes a whole burst in one call: every message
// reaches its endpoint and the fabric counts each one.
func TestInprocSendBatch(t *testing.T) {
	t.Parallel()
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	c, _ := n.Attach(3)
	err := a.SendBatch([]proto.Message{
		subscribeMsg(0, 2), // NilProcess sender: filled in per message
		subscribeMsg(1, 3),
		subscribeMsg(1, 2),
		subscribeMsg(1, 99), // unknown peer: silently lost
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, b, time.Second); m.From != 1 {
		t.Fatalf("batch did not fill in sender: %+v", m)
	}
	recvOne(t, b, time.Second)
	recvOne(t, c, time.Second)
	if st := n.Stats(); st.Sent != 4 || st.Dropped != 1 || st.Datagrams != 2 || st.Bytes == 0 {
		t.Errorf("stats = %+v; want 4 sent, 1 dropped, one datagram per destination", st)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.SendBatch([]proto.Message{subscribeMsg(1, 2)}); err != ErrClosed {
		t.Errorf("SendBatch after close = %v, want ErrClosed", err)
	}
}

// TestInprocSendBatchLossAndLatency: the batched path applies the same
// loss and latency model as single sends.
func TestInprocSendBatchLossAndLatency(t *testing.T) {
	t.Parallel()
	n := NewNetwork(NetworkConfig{
		Loss:     fault.NewBernoulli(1.0, rng.New(7)), // drop everything
		MinDelay: time.Millisecond,
		MaxDelay: 2 * time.Millisecond,
	})
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	if err := a.SendBatch([]proto.Message{subscribeMsg(1, 2), subscribeMsg(1, 2)}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Recv():
		t.Fatalf("lossy batch delivered %+v", m)
	case <-time.After(20 * time.Millisecond):
	}
	if st := n.Stats(); st.Dropped != 2 {
		t.Errorf("dropped = %d, want 2", st.Dropped)
	}
}

// TestInprocPartitionCutsAndHeals: a live partition on the WAN link class
// swallows cross-cluster traffic (counted separately), leaves local
// traffic alone, and heals on ClearPartitions.
func TestInprocPartitionCutsAndHeals(t *testing.T) {
	t.Parallel()
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	if err := n.SetTopology(fault.TwoCluster{Split: 1, Local: fault.LinkProfile{}, WAN: fault.LinkProfile{}}); err != nil {
		t.Fatal(err)
	}
	a, _ := n.Attach(1)
	b, _ := n.Attach(2) // other side of the split: link class WAN
	if err := n.AddPartition(fault.Partition{From: 0, To: ForeverMillis, Classes: []fault.LinkClass{fault.LinkWAN}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(subscribeMsg(1, 2)); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Recv():
		t.Fatalf("message crossed a cut WAN link: %+v", m)
	case <-time.After(20 * time.Millisecond):
	}
	// Local traffic (same side of the split) still flows.
	c, _ := n.Attach(1 << 20) // id > Split: same cluster as 2
	if err := b.Send(subscribeMsg(2, 1<<20)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, c, time.Second)
	st := n.Stats()
	if st.DroppedInPartition != 1 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want exactly the WAN message partition-dropped", st)
	}
	if cleared := n.ClearPartitions(); cleared != 1 {
		t.Fatalf("ClearPartitions = %d, want 1", cleared)
	}
	if err := a.Send(subscribeMsg(1, 2)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, time.Second) // healed: the same link delivers again
}

// TestInprocPartitionValidation: windows must be non-empty and reference
// classes the current topology has.
func TestInprocPartitionValidation(t *testing.T) {
	t.Parallel()
	n := NewNetwork(NetworkConfig{}) // flat fabric: one class
	defer n.Close()
	if err := n.AddPartition(fault.Partition{From: 5, To: 5}); err == nil {
		t.Error("empty window accepted")
	}
	if err := n.AddPartition(fault.Partition{From: 0, To: 10, Classes: []fault.LinkClass{fault.LinkWAN}}); err == nil {
		t.Error("WAN class accepted on a single-class fabric")
	}
	if err := n.AddPartition(fault.Partition{From: 0, To: 10}); err != nil {
		t.Errorf("valid all-class window rejected: %v", err)
	}
	if got := len(n.Partitions()); got != 1 {
		t.Fatalf("Partitions() has %d entries, want 1", got)
	}
	// Installing a two-class topology keeps the all-class window; swapping
	// back to flat keeps it too (it names no class explicitly).
	if err := n.SetTopology(fault.TwoCluster{Split: 1, Local: fault.LinkProfile{}, WAN: fault.LinkProfile{}}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddPartition(fault.Partition{From: 0, To: 10, Classes: []fault.LinkClass{fault.LinkWAN}}); err != nil {
		t.Fatalf("WAN window rejected on a two-cluster topology: %v", err)
	}
	if err := n.SetTopology(nil); err != nil {
		t.Fatal(err)
	}
	// The WAN-specific window referenced a class that no longer exists.
	if got := len(n.Partitions()); got != 1 {
		t.Fatalf("after topology swap %d partitions remain, want 1", got)
	}
}

// TestInprocSetLossAtRuntime: the loss model is swappable while traffic
// flows — the control plane's POST /faults/loss path.
func TestInprocSetLossAtRuntime(t *testing.T) {
	t.Parallel()
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	if err := a.Send(subscribeMsg(1, 2)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, time.Second)
	n.SetLoss(fault.NewBernoulli(1.0, rng.New(3)))
	for i := 0; i < 5; i++ {
		if err := a.Send(subscribeMsg(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case m := <-b.Recv():
		t.Fatalf("message survived 100%% loss: %+v", m)
	case <-time.After(20 * time.Millisecond):
	}
	n.SetLoss(nil)
	if err := a.Send(subscribeMsg(1, 2)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, time.Second)
	if st := n.Stats(); st.Dropped != 5 || st.Received != 2 {
		t.Fatalf("stats = %+v, want 5 dropped, 2 received", st)
	}
}

// TestInprocCodecRefusal: a message the codec refuses is dropped, counted
// and reported, and the rest of its burst still arrives.
func TestInprocCodecRefusal(t *testing.T) {
	t.Parallel()
	a, b := newInprocPair(t)
	err := a.SendBatch([]proto.Message{
		{Kind: proto.GossipMsg, From: 1, To: 2}, // no gossip body
		subscribeMsg(1, 2),
	})
	if err == nil {
		t.Error("a message the codec refuses was not reported")
	}
	if st := a.Stats(); st.Sent != 2 || st.Dropped != 1 || st.Datagrams != 1 {
		t.Errorf("stats = %+v, want 2 sent, 1 dropped, 1 datagram", st)
	}
	if m := recvOne(t, b, time.Second); m.Kind != proto.SubscribeMsg {
		t.Fatalf("got %+v", m)
	}
}

// TestInprocServe: a served endpoint hands each datagram queued for it to its
// handler, one call per datagram and one call at a time; a second Serve
// panics; and Close returns only once the delivery goroutine has exited, so
// the handler is not called after it.
func TestInprocServe(t *testing.T) {
	t.Parallel()
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	const datagrams, per = 3, 256
	burst := make([]proto.Message, per)
	for i := range burst {
		burst[i] = subscribeMsg(1, 2)
	}
	// Queued before Serve: each burst is one datagram.
	for k := 0; k < datagrams; k++ {
		if err := a.SendBatch(burst); err != nil {
			t.Fatal(err)
		}
	}
	if st := n.Stats(); st.Datagrams != datagrams {
		t.Fatalf("%d bursts crossed as %d datagrams, want one each", datagrams, st.Datagrams)
	}
	var mu sync.Mutex
	got, calls, largest := 0, 0, 0
	var closed bool
	b.Serve(func(msgs []proto.Message) {
		mu.Lock()
		defer mu.Unlock()
		if closed {
			t.Error("handler called after Close returned")
		}
		got += len(msgs)
		calls++
		largest = max(largest, len(msgs))
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second Serve did not panic")
			}
		}()
		b.Serve(func([]proto.Message) {})
	}()
	eventually(t, "every message", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got == datagrams*per
	})
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	closed = true
	if calls != datagrams || largest != per {
		t.Errorf("%d messages came in %d calls of at most %d, want one call of %d per datagram",
			datagrams*per, calls, largest, per)
	}
	mu.Unlock()
}
