package transport

import (
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/wire"
)

// newUDPPair binds two loopback transports that know each other's address.
func newUDPPair(t *testing.T) (*UDP, *UDP) {
	t.Helper()
	a, err := NewUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewUDP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := a.AddPeer(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(1, a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func sampleMessages(from, to proto.ProcessID) []proto.Message {
	return []proto.Message{
		{Kind: proto.GossipMsg, From: from, To: to, Gossip: &proto.Gossip{
			From:   from,
			Subs:   []proto.ProcessID{from, 7},
			Unsubs: []proto.Unsubscription{{Process: 4, Stamp: 9}},
			Events: []proto.Event{{ID: proto.EventID{Origin: from, Seq: 1}, Payload: []byte("payload")}},
			Digest: []proto.EventID{{Origin: from, Seq: 1}},
		}},
		{Kind: proto.SubscribeMsg, From: from, To: to, Subscriber: from},
		{Kind: proto.RetransmitRequestMsg, From: from, To: to,
			Request: []proto.EventID{{Origin: 5, Seq: 2}}},
		{Kind: proto.RetransmitReplyMsg, From: from, To: to,
			Reply:     []proto.Event{{ID: proto.EventID{Origin: 5, Seq: 2}, Payload: []byte("again")}},
			ReplyHops: []uint32{1}},
	}
}

// TestUDPRoundTripAllKinds sends each protocol message kind over a real
// loopback socket and verifies the body survives the codec and transport.
func TestUDPRoundTripAllKinds(t *testing.T) {
	t.Parallel()
	a, b := newUDPPair(t)
	for _, m := range sampleMessages(1, 2) {
		if err := a.Send(m); err != nil {
			t.Fatalf("send %v: %v", m.Kind, err)
		}
		got := recvOne(t, b, 2*time.Second)
		if got.Kind != m.Kind || got.From != 1 || got.To != 2 {
			t.Fatalf("kind %v: got %+v", m.Kind, got)
		}
		switch m.Kind {
		case proto.GossipMsg:
			if got.Gossip == nil || len(got.Gossip.Events) != 1 ||
				string(got.Gossip.Events[0].Payload) != "payload" {
				t.Fatalf("gossip body mangled: %+v", got.Gossip)
			}
		case proto.SubscribeMsg:
			if got.Subscriber != 1 {
				t.Fatalf("subscriber = %v", got.Subscriber)
			}
		case proto.RetransmitRequestMsg:
			if len(got.Request) != 1 || got.Request[0] != (proto.EventID{Origin: 5, Seq: 2}) {
				t.Fatalf("request mangled: %+v", got.Request)
			}
		case proto.RetransmitReplyMsg:
			if len(got.Reply) != 1 || string(got.Reply[0].Payload) != "again" ||
				len(got.ReplyHops) != 1 || got.ReplyHops[0] != 1 {
				t.Fatalf("reply mangled: %+v", got)
			}
		}
	}
}

// TestUDPSendBatchPacksDatagrams is the acceptance gate for transport
// batching: a fanout-3 burst carrying two messages per destination must
// cost one datagram per destination — at least 2× fewer datagrams than
// messages.
func TestUDPSendBatchPacksDatagrams(t *testing.T) {
	t.Parallel()
	src, err := NewUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	const fanout = 3
	peers := make([]*UDP, fanout)
	var burst []proto.Message
	for i := range peers {
		id := proto.ProcessID(i + 2)
		p, err := NewUDP(id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers[i] = p
		if err := src.AddPeer(id, p.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		// A gossip plus a retransmission request per target, the shape of a
		// live round that detected losses.
		burst = append(burst,
			proto.Message{Kind: proto.GossipMsg, From: 1, To: id, Gossip: &proto.Gossip{
				From:   1,
				Subs:   []proto.ProcessID{1},
				Digest: []proto.EventID{{Origin: 1, Seq: 7}},
			}},
			proto.Message{Kind: proto.RetransmitRequestMsg, From: 1, To: id,
				Request: []proto.EventID{{Origin: 9, Seq: uint32(i + 1)}}},
		)
	}
	if err := src.SendBatch(burst); err != nil {
		t.Fatal(err)
	}
	datagrams := src.Stats().Datagrams
	if want := uint64(fanout); datagrams != want {
		t.Errorf("burst of %d messages used %d datagrams, want %d", len(burst), datagrams, want)
	}
	if got, want := datagrams*2, uint64(len(burst)); got != want {
		t.Errorf("datagram reduction below 2x: %d datagrams for %d messages", datagrams, len(burst))
	}
	if st := src.Stats(); st.Sent != uint64(len(burst)) || st.Bytes == 0 {
		t.Errorf("stats = %+v, want %d messages sent and nonzero bytes", st, len(burst))
	}
	for i, p := range peers {
		m1 := recvOne(t, p, 2*time.Second)
		m2 := recvOne(t, p, 2*time.Second)
		if m1.Kind != proto.GossipMsg || m2.Kind != proto.RetransmitRequestMsg {
			t.Fatalf("peer %d got kinds %v, %v (order must survive packing)", i, m1.Kind, m2.Kind)
		}
		if m2.Request[0].Seq != uint32(i+1) {
			t.Fatalf("peer %d got request %+v", i, m2.Request)
		}
		if received := p.Stats().Received; received != 2 {
			t.Errorf("peer %d received %d messages, want 2", i, received)
		}
	}
}

// TestUDPSendBatchSingleStaysCompatible pins the wire compatibility rule:
// a burst of one message goes out as a plain version-1 frame.
func TestUDPSendBatchSingleStaysCompatible(t *testing.T) {
	t.Parallel()
	a, b := newUDPPair(t)
	if err := a.SendBatch([]proto.Message{{Kind: proto.SubscribeMsg, To: 2, Subscriber: 1}}); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, b, 2*time.Second)
	if got.Kind != proto.SubscribeMsg || got.From != 1 {
		t.Fatalf("got %+v", got)
	}
	if st := a.Stats(); st.Datagrams != 1 || st.Sent != 1 {
		t.Errorf("stats = %+v, want 1 message in 1 datagram", st)
	}
}

// TestUDPSendBatchSplitsOversizedBursts: a burst too large for one
// datagram flushes in container-sized chunks instead of failing.
func TestUDPSendBatchSplitsOversizedBursts(t *testing.T) {
	t.Parallel()
	a, b := newUDPPair(t)
	payload := make([]byte, 20*1024)
	var burst []proto.Message
	for i := 0; i < 6; i++ { // ~120 KiB total, > one 64 KiB datagram
		burst = append(burst, proto.Message{
			Kind: proto.RetransmitReplyMsg, From: 1, To: 2,
			Reply: []proto.Event{{ID: proto.EventID{Origin: 1, Seq: uint32(i + 1)}, Payload: payload}},
		})
	}
	if err := a.SendBatch(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(burst); i++ {
		got := recvOne(t, b, 2*time.Second)
		if got.Reply[0].ID.Seq != uint32(i+1) {
			t.Fatalf("message %d out of order: %+v", i, got.Reply[0].ID)
		}
	}
	datagrams := a.Stats().Datagrams
	if datagrams <= 1 || datagrams >= uint64(len(burst)) {
		t.Errorf("oversized burst used %d datagrams, want between 2 and %d", datagrams, len(burst)-1)
	}
}

// TestUDPDecodeErrorCounter: corrupt datagrams bump the decode-error
// counter and do not disturb subsequent valid traffic.
func TestUDPDecodeErrorCounter(t *testing.T) {
	t.Parallel()
	a, b := newUDPPair(t)

	raw, err := net.Dial("udp", b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{'L', 9, 42, 0xFF}); err != nil { // bad version
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("not even close")); err != nil {
		t.Fatal(err)
	}

	// Valid traffic still flows afterwards.
	if err := a.Send(proto.Message{Kind: proto.SubscribeMsg, To: 2, Subscriber: 1}); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, b, 2*time.Second)
	if got.Kind != proto.SubscribeMsg {
		t.Fatalf("got %+v", got)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		if b.Stats().DecodeErrs == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("decodeErrs = %d, want 2", b.Stats().DecodeErrs)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUDPSendBatchUnknownPeer: unknown destinations lose their messages
// and report the error, while the rest of the burst still goes out.
func TestUDPSendBatchUnknownPeer(t *testing.T) {
	t.Parallel()
	a, b := newUDPPair(t)
	err := a.SendBatch([]proto.Message{
		{Kind: proto.SubscribeMsg, To: 99, Subscriber: 1},
		{Kind: proto.SubscribeMsg, To: 2, Subscriber: 1},
	})
	if err == nil {
		t.Error("unknown peer did not surface an error")
	}
	got := recvOne(t, b, 2*time.Second)
	if got.To != 2 {
		t.Fatalf("got %+v", got)
	}
}

// TestUDPContainerInterop decodes a hand-packed container datagram sent
// over a raw socket, proving the reader handles externally produced
// batches, not just its own.
func TestUDPContainerInterop(t *testing.T) {
	t.Parallel()
	_, b := newUDPPair(t)
	pack := wire.Packer{Budget: math.MaxInt}
	for _, m := range []proto.Message{
		{Kind: proto.SubscribeMsg, From: 3, To: 2, Subscriber: 3},
		{Kind: proto.RetransmitRequestMsg, From: 3, To: 2,
			Request: []proto.EventID{{Origin: 1, Seq: 1}}},
	} {
		if _, _, err := pack.Add(&m); err != nil {
			t.Fatal(err)
		}
	}
	datagram, _ := pack.Finish()
	raw, err := net.Dial("udp", b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(datagram); err != nil {
		t.Fatal(err)
	}
	m1 := recvOne(t, b, 2*time.Second)
	m2 := recvOne(t, b, 2*time.Second)
	if m1.Kind != proto.SubscribeMsg || m2.Kind != proto.RetransmitRequestMsg {
		t.Fatalf("got kinds %v, %v", m1.Kind, m2.Kind)
	}

	// The same two messages and a gossip as wire.PackFrames packed them
	// before the in-place Packer existed, byte for byte.
	packed := []byte{'L', 2, 3,
		6, 'L', 1, 2, 3, 2, 3,
		8, 'L', 1, 3, 3, 2, 1, 1, 1,
		21, 'L', 1, 1, 3, 2, 3, 2, 3, 0xac, 2, 0, 1, 3, 1, 2, 'h', 'i', 1, 3, 1, 0}
	if _, err := raw.Write(packed); err != nil {
		t.Fatal(err)
	}
	m1, m2 = recvOne(t, b, 2*time.Second), recvOne(t, b, 2*time.Second)
	m3 := recvOne(t, b, 2*time.Second)
	want := proto.Gossip{From: 3, Subs: []proto.ProcessID{3, 300},
		Events: []proto.Event{{ID: proto.EventID{Origin: 3, Seq: 1}, Payload: []byte("hi")}},
		Digest: []proto.EventID{{Origin: 3, Seq: 1}}}
	if m1.Kind != proto.SubscribeMsg || m2.Kind != proto.RetransmitRequestMsg ||
		m3.Gossip == nil || !reflect.DeepEqual(*m3.Gossip, want) {
		t.Fatalf("hand-packed container decoded as %+v, %+v, %+v", m1, m2, m3)
	}
}

// TestUDPStatsConcurrentSendHammer drives Send, SendBatch, and Stats from
// many goroutines at once. Under -race this proves the stats counters no
// longer share the peer-table mutex (the old per-datagram lock serialized
// high-rate senders and stalled the read loop behind them), and the final
// sent count must equal the exact number of datagrams the schedule
// produces — no increments lost between concurrent bursts.
func TestUDPStatsConcurrentSendHammer(t *testing.T) {
	t.Parallel()
	a, _ := newUDPPair(t)

	const goroutines = 8
	const iters = 200
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(1)
	go func() { // concurrent Stats reader: must never race or block senders
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				a.Stats()
			}
		}
	}()

	var senders sync.WaitGroup
	senders.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer senders.Done()
			burst := []proto.Message{
				{Kind: proto.SubscribeMsg, From: 1, To: 2, Subscriber: 1},
				{Kind: proto.SubscribeMsg, From: 1, To: 2, Subscriber: 1},
				{Kind: proto.SubscribeMsg, From: 1, To: 2, Subscriber: 1},
			}
			for i := 0; i < iters; i++ {
				// One datagram from Send…
				if err := a.Send(proto.Message{Kind: proto.SubscribeMsg, From: 1, To: 2, Subscriber: 1}); err != nil {
					t.Errorf("goroutine %d: Send: %v", g, err)
					return
				}
				// …and one from SendBatch: three tiny same-destination
				// messages pack into a single container datagram.
				if err := a.SendBatch(burst); err != nil {
					t.Errorf("goroutine %d: SendBatch: %v", g, err)
					return
				}
			}
		}(g)
	}
	senders.Wait()
	close(stop)
	pollers.Wait()

	if got, want := a.Stats().Datagrams, uint64(goroutines*iters*2); got != want {
		t.Errorf("sent = %d datagrams, want exactly %d", got, want)
	}
	if got, want := a.Stats().Sent, uint64(goroutines*iters*4); got != want {
		t.Errorf("sent = %d messages, want exactly %d", got, want)
	}
}

// longBurst is a datagram of long lists: a gossip with every list filled
// and a retransmission reply, varied by k.
func longBurst(k int) []proto.Message {
	g := &proto.Gossip{From: 1}
	for i := 0; i < 12; i++ {
		g.Subs = append(g.Subs, proto.ProcessID(100*k+i+1))
		g.Unsubs = append(g.Unsubs, proto.Unsubscription{Process: proto.ProcessID(i + 1), Stamp: uint64(k)})
		g.Events = append(g.Events, proto.Event{ID: proto.EventID{Origin: 1, Seq: uint32(100*k + i + 1)}, Payload: []byte{byte(k), byte(i), 7}})
		g.Digest = append(g.Digest, proto.EventID{Origin: 2, Seq: uint32(100*k + i + 1)})
		g.DigestWatermarks = append(g.DigestWatermarks, proto.EventID{Origin: proto.ProcessID(i + 1), Seq: uint32(k + 1)})
	}
	return []proto.Message{
		{Kind: proto.GossipMsg, From: 1, To: 2, Gossip: g},
		{Kind: proto.RetransmitReplyMsg, From: 1, To: 2,
			Reply:     []proto.Event{{ID: proto.EventID{Origin: 3, Seq: uint32(k + 1)}, Payload: []byte("again")}},
			ReplyHops: []uint32{uint32(k)}},
		{Kind: proto.RetransmitRequestMsg, From: 1, To: 2,
			Request: []proto.EventID{{Origin: 5, Seq: uint32(k + 1)}}},
	}
}

func cloneAll(msgs []proto.Message) []proto.Message {
	out := make([]proto.Message, len(msgs))
	for i := range msgs {
		out[i] = msgs[i].Clone()
	}
	return out
}

// TestUDPServeLifetime pins the contract of Serve. The handler sees each
// datagram's messages as they were sent; a Clone it takes is its own and
// does not change while a hundred further datagrams are decoded; the reader
// decodes all of them into one arena, which stops growing; and a datagram of
// short lists decoded where long ones were shows nothing of them.
func TestUDPServeLifetime(t *testing.T) {
	t.Parallel()
	a, b := newUDPPair(t)

	type seen struct {
		msgs []proto.Message // cloned inside the handler
		ok   bool            // the messages equalled what was sent
		size int             // the arena's size while the handler ran
	}
	const datagrams = 101
	short := []proto.Message{
		{Kind: proto.GossipMsg, From: 1, To: 2, Gossip: &proto.Gossip{From: 1}},
		{Kind: proto.SubscribeMsg, From: 1, To: 2, Subscriber: 1},
	}
	calls := 0
	handled := make(chan seen)
	b.Serve(func(msgs []proto.Message) {
		want := short
		if calls < datagrams {
			want = longBurst(calls)
		}
		calls++
		handled <- seen{msgs: cloneAll(msgs), ok: reflect.DeepEqual(msgs, want), size: b.arena.Size()}
	})
	next := func() seen {
		t.Helper()
		select {
		case s := <-handled:
			return s
		case <-time.After(2 * time.Second):
			t.Fatal("timed out waiting for a datagram")
			return seen{}
		}
	}

	var first, second, last seen
	for k := 0; k < datagrams; k++ {
		if err := a.SendBatch(longBurst(k)); err != nil {
			t.Fatal(err)
		}
		got := next()
		if !got.ok {
			t.Fatalf("datagram %d decoded as %+v", k, got.msgs)
		}
		switch k {
		case 0:
			first = got
		case 1:
			second = got
		}
		last = got
	}
	if !reflect.DeepEqual(first.msgs, longBurst(0)) {
		t.Fatalf("a clone taken in the handler changed while later datagrams arrived: %+v", first.msgs)
	}
	if last.size != second.size {
		t.Errorf("the arena grew from %d to %d B over datagrams of one shape", second.size, last.size)
	}

	// Shorter lists and an empty gossip into storage that held long ones.
	if err := a.SendBatch(short); err != nil {
		t.Fatal(err)
	}
	if got := next(); !got.ok {
		t.Fatalf("the arena shows its previous datagram:\ngot  %+v (gossip %+v)\nwant %+v", got.msgs, got.msgs[0].Gossip, short)
	}
	if st := b.Stats(); st.Received != uint64(datagrams*len(longBurst(0))+len(short)) {
		t.Errorf("received %d messages, want every one handed to the handler", st.Received)
	}
}

// TestUDPServeOnce: a transport is served once, through Serve or through
// Recv, and closes whether it was served or not; once closed, Serve starts
// nothing and Recv's channel is closed. Both transports.
func TestUDPServeOnce(t *testing.T) {
	t.Parallel()
	for _, tc := range transports {
		t.Run(tc.name, func(t *testing.T) {
			mustPanic := func(name string, f func()) {
				t.Helper()
				defer func() {
					if recover() == nil {
						t.Errorf("%s did not panic", name)
					}
				}()
				f()
			}
			idle, _ := tc.pair(t)
			closeWithin(t, idle, 2*time.Second) // never served

			served, recv := tc.pair(t)
			served.Serve(func([]proto.Message) {})
			mustPanic("a second Serve", func() { served.Serve(func([]proto.Message) {}) })
			mustPanic("Recv after Serve", func() { served.Recv() })
			closeWithin(t, served, 2*time.Second)

			recv.Recv()
			mustPanic("Serve after Recv", func() { recv.Serve(func([]proto.Message) {}) })
			closeWithin(t, recv, 2*time.Second)

			closed, late := tc.pair(t)
			closeWithin(t, closed, 2*time.Second)
			closed.Serve(func([]proto.Message) { t.Error("a closed transport called its handler") })
			closeWithin(t, late, 2*time.Second)
			if _, ok := <-late.Recv(); ok {
				t.Error("Recv after Close returned an open channel")
			}
		})
	}
}

// TestUDPRecvCopies: a message taken from Recv is the consumer's own — it
// does not change when the arena it was decoded in is decoded into again.
// Both transports.
func TestUDPRecvCopies(t *testing.T) {
	t.Parallel()
	for _, tc := range transports {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.pair(t)
			if err := a.SendBatch(longBurst(0)); err != nil {
				t.Fatal(err)
			}
			var kept []proto.Message
			for range longBurst(0) {
				kept = append(kept, recvOne(t, b, 2*time.Second))
			}
			for k := 1; k <= 20; k++ {
				if err := a.SendBatch(longBurst(k)); err != nil {
					t.Fatal(err)
				}
				for range longBurst(k) {
					recvOne(t, b, 2*time.Second)
				}
			}
			if !reflect.DeepEqual(kept, longBurst(0)) {
				t.Fatalf("messages from Recv changed under their holder: %+v", kept)
			}
		})
	}
}

// eventually polls cond until it holds, failing after two seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func closeWithin(t *testing.T, u interface{ Close() error }, d time.Duration) {
	t.Helper()
	closed := make(chan error, 1)
	go func() { closed <- u.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(d):
		t.Fatal("Close did not return")
	}
}

// drainClosed takes what msgs still holds and fails unless it closes within
// two seconds; it returns how many messages it took.
func drainClosed(t *testing.T, msgs <-chan proto.Message) int {
	t.Helper()
	queued := 0
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-msgs:
			if !ok {
				return queued
			}
			queued++
		case <-deadline:
			t.Fatal("Recv channel still open after Close")
			return queued
		}
	}
}

// TestUDPInboxOverflow stalls the consumer of the Recv adapter: its channel
// takes recvQueue messages, and every message of every later datagram is
// counted in Received and dropped, counted in Dropped. After Close the
// channel hands over what it held. Both transports.
func TestUDPInboxOverflow(t *testing.T) {
	t.Parallel()
	for _, tc := range transports {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.pair(t)
			msgs := b.Recv()
			// Four messages a datagram, so the full channel falls on a datagram edge.
			burst := []proto.Message{subscribeMsg(1, 2), subscribeMsg(1, 2), subscribeMsg(1, 2), subscribeMsg(1, 2)}
			const extra = 10
			kept := recvQueue / len(burst)
			for k := 1; k <= kept+extra; k++ {
				if err := a.SendBatch(burst); err != nil {
					t.Fatal(err)
				}
				// One at a time, so that nothing is lost ahead of the reader.
				eventually(t, "the reader", func() bool { return b.Stats().Received >= uint64(k*len(burst)) })
			}
			want := uint64(extra * len(burst))
			eventually(t, "the drops", func() bool { return b.Stats().Dropped >= want })
			if st := b.Stats(); st.Received != uint64((kept+extra)*len(burst)) || st.Dropped != want {
				t.Errorf("stats = %+v, want %d received and %d dropped: every message of every late datagram",
					st, (kept+extra)*len(burst), want)
			}
			closeWithin(t, b, 2*time.Second)
			if queued := drainClosed(t, msgs); queued != recvQueue {
				t.Errorf("closed transport handed over %d queued messages, want %d", queued, recvQueue)
			}
		})
	}
}

// TestUDPCloseWithStalledRecv stalls the consumer of the Recv adapter with
// one message a datagram: every message past recvQueue is dropped and counted
// in Dropped; the reader keeps reading meanwhile, Close returns, and the
// channel yields what it held and closes. Both transports.
func TestUDPCloseWithStalledRecv(t *testing.T) {
	t.Parallel()
	for _, tc := range transports {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.pair(t)
			msgs := b.Recv()
			const extra = 20
			for k := 1; k <= recvQueue+extra; k++ {
				if err := a.Send(subscribeMsg(1, 2)); err != nil {
					t.Fatal(err)
				}
				// One at a time, so that nothing is lost ahead of the reader.
				eventually(t, "the reader", func() bool { return b.Stats().Received >= uint64(k) })
			}
			eventually(t, "the drops", func() bool { return b.Stats().Dropped >= extra })
			if st := b.Stats(); st.Received != recvQueue+extra || st.Dropped != extra {
				t.Errorf("stats = %+v, want %d received and %d dropped", st, recvQueue+extra, extra)
			}
			closeWithin(t, b, 2*time.Second)
			if queued := drainClosed(t, msgs); queued != recvQueue {
				t.Errorf("closed transport handed over %d queued messages, want %d", queued, recvQueue)
			}
		})
	}
}
