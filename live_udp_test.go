package lpbcast

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

// udpMesh binds n loopback transports that know every other's address.
func udpMesh(t *testing.T, n int) []*UDPTransport {
	t.Helper()
	trs := make([]*UDPTransport, n)
	for i := range trs {
		tr, err := NewUDPTransport(ProcessID(i+1), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		trs[i] = tr
	}
	for i, tr := range trs {
		for j, peer := range trs {
			if i != j {
				if err := tr.AddPeer(ProcessID(j+1), peer.LocalAddr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return trs
}

// TestLiveUDPRaceHammer drives four UDP nodes at a 1 ms interval while other
// goroutines publish, read views and counters, re-join and, once, leave.
// Under -race it checks that the engine is only ever entered under the
// node's lock, from the ticker, the socket and the API alike; and every
// event published by a node that stays is delivered exactly once at every
// node that stays.
func TestLiveUDPRaceHammer(t *testing.T) {
	const (
		nodes    = 4
		leaver   = 4 // neither publishes nor is checked for deliveries
		perNode  = 8
		interval = time.Millisecond
	)
	trs := udpMesh(t, nodes)
	var mu sync.Mutex
	counts := make([]map[EventID]int, nodes)
	ns := make([]*Node, nodes)
	for i := range ns {
		i := i
		counts[i] = map[EventID]int{}
		peers := make([]ProcessID, 0, nodes-1)
		for p := ProcessID(1); p <= nodes; p++ {
			if p != ProcessID(i+1) {
				peers = append(peers, p)
			}
		}
		n, err := NewNode(ProcessID(i+1), trs[i],
			WithGossipInterval(interval),
			WithViewSize(nodes-1),
			WithFanout(2),
			WithSeeds(peers...),
			WithRNGSeed(uint64(i+1)*7919),
			WithDeliveryHandler(func(ev Event) {
				mu.Lock()
				counts[i][ev.ID]++
				mu.Unlock()
			}))
		if err != nil {
			t.Fatal(err)
		}
		ns[i] = n
		n.Start()
		t.Cleanup(func() { n.Close() })
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // readers and re-joins, until the deliveries are in
		defer bg.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			n := ns[k%nodes]
			_ = n.View()
			_ = n.Stats()
			_, _ = n.TransportStats()
			if id := ProcessID(k%nodes + 1); id != leaver {
				_ = ns[id-1].Join(ProcessID((k+1)%(nodes-1) + 1))
			}
			time.Sleep(interval / 4)
		}
	}()
	go func() { // one departure, while traffic flows
		defer bg.Done()
		time.Sleep(5 * interval)
		if err := ns[leaver-1].Leave(); err != nil {
			t.Errorf("Leave: %v", err)
		}
	}()

	var pubs sync.WaitGroup
	var ids []EventID
	for i := 0; i < nodes; i++ {
		if i+1 == leaver {
			continue
		}
		pubs.Add(1)
		go func(n *Node) {
			defer pubs.Done()
			for k := 0; k < perNode; k++ {
				ev, err := n.Publish([]byte{byte(n.ID()), byte(k)})
				if err != nil {
					t.Errorf("node %v: Publish: %v", n.ID(), err)
					return
				}
				mu.Lock()
				ids = append(ids, ev.ID)
				mu.Unlock()
				time.Sleep(interval)
			}
		}(ns[i])
	}
	pubs.Wait()

	complete := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := range ns {
			if i+1 == leaver {
				continue
			}
			for _, id := range ids {
				if counts[i][id] == 0 {
					return false
				}
			}
		}
		return true
	}
	deadline := time.Now().Add(15 * time.Second)
	for !complete() {
		if time.Now().After(deadline) {
			close(stop)
			bg.Wait()
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("incomplete delivery of %d events: %v", len(ids), counts)
		}
		time.Sleep(interval)
	}
	time.Sleep(20 * interval) // let duplicates, if any, arrive
	close(stop)
	bg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for i := range ns {
		if i+1 == leaver {
			continue
		}
		for id, c := range counts[i] {
			if c != 1 {
				t.Errorf("node %d delivered %v %d times", i+1, id, c)
			}
		}
	}
}

// TestDeliveredPayloadOutlivesDatagram: a delivery handler may keep
// ev.Payload. The bytes it keeps are the engine's copy, not the storage the
// transport decoded the datagram into, so they read the same after a
// hundred further datagrams have been decoded where the first one was.
func TestDeliveredPayloadOutlivesDatagram(t *testing.T) {
	t.Parallel()
	trs := udpMesh(t, 2)
	const datagrams = 101
	var mu sync.Mutex
	var kept [][]byte
	n, err := NewNode(1, trs[0],
		WithGossipInterval(time.Hour), // nothing but receptions
		WithDeliveryHandler(func(ev Event) {
			mu.Lock()
			kept = append(kept, ev.Payload)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Close()

	payload := func(k int) []byte {
		p := bytes.Repeat([]byte{byte(k)}, 32)
		binary.LittleEndian.PutUint64(p, uint64(k))
		return p
	}
	delivered := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(kept)
	}
	for k := 1; k <= datagrams; k++ {
		ev := Event{ID: EventID{Origin: 2, Seq: uint64(k)}, Payload: payload(k)}
		g := &Gossip{From: 2, Subs: []ProcessID{2}, Events: []Event{ev}}
		if err := trs[1].Send(Message{Kind: GossipMsgKind, From: 2, To: 1, Gossip: g}); err != nil {
			t.Fatal(err)
		}
		// One at a time: the socket buffer loses nothing, and each datagram
		// is decoded over the storage of the one before.
		deadline := time.Now().Add(5 * time.Second)
		for delivered() < k {
			if time.Now().After(deadline) {
				t.Fatalf("event %d not delivered", k)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	n.Close() // no handler runs from here on

	for i, p := range kept {
		if want := payload(i + 1); !bytes.Equal(p, want) {
			t.Fatalf("kept payload %d reads %v after later datagrams, want %v", i+1, p, want)
		}
	}
}

// watchedEngine is the default engine with its two driven entry points
// counted once the test has marked the node closed.
type watchedEngine struct {
	Engine
	closed *atomic.Bool
	late   *atomic.Int64
}

func (e watchedEngine) TickAppend(now uint64, out []Message) []Message {
	if e.closed.Load() {
		e.late.Add(1)
	}
	return e.Engine.TickAppend(now, out)
}

func (e watchedEngine) HandleMessageAppend(m Message, now uint64, out []Message) []Message {
	if e.closed.Load() {
		e.late.Add(1)
	}
	return e.Engine.HandleMessageAppend(m, now, out)
}

// TestNodeCloseUnderFlood closes a UDP node while a peer floods its socket
// with fresh events. Close returns although the transport's goroutine keeps
// calling the node's handler, and from then on the engine is not entered
// and the delivery handler is not called.
func TestNodeCloseUnderFlood(t *testing.T) {
	t.Parallel()
	trs := udpMesh(t, 2)
	var closed atomic.Bool
	var late, delivered atomic.Int64
	n, err := NewNode(1, trs[0],
		WithGossipInterval(time.Millisecond),
		WithSeeds(2),
		WithEngine(func(id ProcessID, deliver func(Event), seed uint64) (Engine, error) {
			eng, err := core.New(id, defaultNodeConfig(id).engine, deliver, rng.New(seed))
			return watchedEngine{Engine: eng, closed: &closed, late: &late}, err
		}),
		WithDeliveryHandler(func(Event) {
			delivered.Add(1)
			if closed.Load() {
				late.Add(1)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()

	stop := make(chan struct{})
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			ev := Event{ID: EventID{Origin: 2, Seq: seq}, Payload: []byte("flood")}
			g := &Gossip{From: 2, Subs: []ProcessID{2}, Events: []Event{ev}, Digest: []EventID{ev.ID}}
			_ = trs[1].Send(Message{Kind: GossipMsgKind, From: 2, To: 1, Gossip: g})
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() < 100 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d flooded events delivered", delivered.Load())
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() { done <- n.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return under a flood")
	}
	closed.Store(true)
	time.Sleep(50 * time.Millisecond) // the flood goes on, and the ticker would have fired
	close(stop)
	<-flooded
	if got := late.Load(); got != 0 {
		t.Errorf("%d engine or delivery calls after Close returned", got)
	}
}
