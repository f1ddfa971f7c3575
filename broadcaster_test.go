package lpbcast

import (
	"testing"
	"time"
)

// pbcastTrio builds three started pbcast-engine nodes on one in-process
// network, fully meshed via seeds.
func pbcastTrio(t *testing.T) (*Network, []*Node) {
	t.Helper()
	network := NewInprocNetwork(InprocConfig{})
	t.Cleanup(func() { network.Close() })
	ids := []ProcessID{1, 2, 3}
	nodes := make([]*Node, 0, len(ids))
	for _, id := range ids {
		ep, err := network.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		var seeds []ProcessID
		for _, s := range ids {
			if s != id {
				seeds = append(seeds, s)
			}
		}
		n, err := NewNode(id, ep,
			WithEngine(PbcastEngine(PbcastConfig{})),
			WithGossipInterval(5*time.Millisecond),
			WithSeeds(seeds...),
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		n.Start()
		nodes = append(nodes, n)
	}
	return network, nodes
}

// TestPbcastBehindBroadcasterAPI runs the paper's §6.2 baseline behind the
// same live runtime as lpbcast: a pbcast anti-entropy group over the
// in-process network, driven through the protocol-agnostic Broadcaster
// interface.
func TestPbcastBehindBroadcasterAPI(t *testing.T) {
	t.Parallel()
	_, nodes := pbcastTrio(t)

	// The protocol-agnostic view of the group.
	group := make([]Broadcaster, len(nodes))
	for i, n := range nodes {
		group[i] = n
	}

	ev, err := group[0].Publish([]byte("via pbcast"))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range group[1:] {
		select {
		case got := <-b.Deliveries():
			if got.ID != ev.ID || string(got.Payload) != "via pbcast" {
				t.Fatalf("node %v delivered %+v, want %v", b.ID(), got, ev.ID)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("node %v never delivered %v", b.ID(), ev.ID)
		}
	}

	// The shared counter vocabulary: pbcast's pull shows up as
	// retransmission traffic, publications and deliveries line up.
	s := group[0].Stats()
	if s.EventsPublished != 1 || s.EventsDelivered != 1 {
		t.Errorf("publisher stats = %+v, want 1 published, 1 delivered", s)
	}
	var pulls uint64
	for _, b := range group {
		pulls += b.Stats().RetransmitRequests
	}
	if pulls == 0 {
		t.Error("no solicitations recorded: payload cannot have travelled by pbcast pull")
	}
}

// TestPbcastEngineLimits pins the seam's edges: graceful unsubscription is
// refused (pbcast has none) and join requests are well-formed.
func TestPbcastEngineLimits(t *testing.T) {
	t.Parallel()
	eng, err := PbcastEngine(PbcastConfig{ViewSize: 8, Fanout: 4})(7, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Unsubscribe(0); err == nil {
		t.Error("pbcast engine accepted Unsubscribe")
	}
	if _, err := eng.JoinVia(7); err == nil {
		t.Error("JoinVia accepted self as contact")
	}
	msg, err := eng.JoinVia(3)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != SubscribeMsgKind || msg.To != 3 || msg.Subscriber != 7 {
		t.Errorf("join request = %+v", msg)
	}
	if eng.ViewLen() != 1 {
		t.Errorf("ViewLen after join seed = %d, want 1", eng.ViewLen())
	}
	if eng.Knows(EventID{Origin: 1, Seq: 1}) {
		t.Error("fresh engine knows an event")
	}
	ev, err := eng.Publish([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Knows(ev.ID) {
		t.Error("published event unknown")
	}
}

// TestWithEngineRejectsNil guards the factory seam.
func TestWithEngineRejectsNil(t *testing.T) {
	t.Parallel()
	_, err := NewNode(1, newConsumingTransport(), WithEngine(
		func(id ProcessID, deliver func(Event), rngSeed uint64) (Engine, error) {
			return nil, nil
		}))
	if err == nil {
		t.Fatal("nil engine accepted")
	}
}

// TestClusterSeedsCustomEngineViewCap: with no explicit SeedViewSize, the
// cluster fills each node's view to the installed engine's own bound —
// not the default lpbcast view size.
func TestClusterSeedsCustomEngineViewCap(t *testing.T) {
	t.Parallel()
	c, err := NewCluster(ClusterConfig{
		N:          24,
		Seed:       5,
		DeferStart: true,
		NodeOptions: []Option{
			WithEngine(PbcastEngine(PbcastConfig{ViewSize: 10})),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range c.Nodes() {
		if got := len(n.View()); got != 10 {
			t.Fatalf("node %v seeded with %d peers, want the engine's view bound 10", n.ID(), got)
		}
	}
}
