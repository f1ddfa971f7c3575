package pbcast

import (
	"fmt"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// totalNode builds a TotalView node over n processes.
func totalNode(t testing.TB, cfg Config) *Node {
	t.Helper()
	cfg.Mode = TotalView
	n, err := New(1, cfg, nil, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	var all []proto.ProcessID
	for p := proto.ProcessID(1); p <= 64; p++ {
		all = append(all, p)
	}
	n.SetTotalView(all)
	return n
}

// tickAllocs measures steady-state allocations of one TickAppend call.
func tickAllocs(t testing.TB, fanout int) float64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Fanout = fanout
	n := totalNode(t, cfg)
	buf := make([]proto.Message, 0, 64)
	now := uint64(0)
	return testing.AllocsPerRun(200, func() {
		now++
		buf = n.TickAppend(now, buf[:0])
	})
}

// TestTickAppendNoAllocPerMessage mirrors the lpbcast hot-path gate for
// the pbcast baseline: emission cost must not scale with the fanout.
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

// TestHandleMessageAppendZeroAllocKnownDigest: a digest gossip advertising
// only messages the node already stores — the steady state of a converged
// system — must be allocation-free.
func TestHandleMessageAppendZeroAllocKnownDigest(t *testing.T) {
	n := totalNode(t, DefaultConfig())
	ev := publish(t, n, nil)
	dup := proto.Message{
		Kind:   proto.GossipMsg,
		From:   2,
		To:     1,
		Gossip: &proto.Gossip{From: 2, Digest: []proto.EventID{ev.ID}},
	}
	var out []proto.Message
	allocs := testing.AllocsPerRun(200, func() {
		out = n.HandleMessageAppend(dup, 2, out[:0])
	})
	if allocs != 0 {
		t.Errorf("known-digest HandleMessageAppend allocates %v times per call, want 0", allocs)
	}
	if len(out) != 0 {
		t.Errorf("known digest produced %d solicitations", len(out))
	}
}

// TestTickAppendReuseZeroAlloc: in emission-reuse mode (the seam the
// simulator's sharded executor and the live node opt into), a steady-state
// tick recycles the gossip and every backing slice — zero allocations.
func TestTickAppendReuseZeroAlloc(t *testing.T) {
	n := totalNode(t, DefaultConfig())
	n.SetEmissionReuse(true)
	buf := make([]proto.Message, 0, 64)
	now := uint64(0)
	for i := 0; i < 5; i++ { // reach scratch high-water capacity
		now++
		buf = n.TickAppend(now, buf[:0])
	}
	allocs := testing.AllocsPerRun(200, func() {
		now++
		buf = n.TickAppend(now, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("reuse-mode TickAppend allocates %v times per round, want 0", allocs)
	}
	if len(buf) == 0 || buf[0].Gossip == nil {
		t.Fatal("reuse-mode tick emitted nothing")
	}
	prev := buf[0].Gossip
	buf = n.TickAppend(now+1, buf[:0])
	if len(buf) == 0 || buf[0].Gossip != prev {
		t.Error("reuse-mode TickAppend did not recycle the round gossip")
	}
}

// TestEmissionReuseDrawEquivalence: a reuse-mode node and a fresh-alloc
// node built from the same seed must emit byte-identical gossip rounds —
// the property the simulator's bit-for-bit executor equivalence relies on.
func TestEmissionReuseDrawEquivalence(t *testing.T) {
	for _, mode := range []ViewMode{TotalView, PartialView} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		build := func() *Node {
			n, err := New(1, cfg, nil, rng.New(99))
			if err != nil {
				t.Fatal(err)
			}
			var all []proto.ProcessID
			for p := proto.ProcessID(2); p <= 40; p++ {
				all = append(all, p)
			}
			if mode == TotalView {
				n.SetTotalView(append([]proto.ProcessID{1}, all...))
			} else {
				n.Seed(all)
			}
			publish(t, n, []byte("seed"))
			return n
		}
		plain, reuse := build(), build()
		reuse.SetEmissionReuse(true)
		var rbuf []proto.Message
		for now := uint64(1); now <= 20; now++ {
			pm := plain.TickAppend(now, nil)
			rbuf = reuse.TickAppend(now, rbuf[:0])
			if len(pm) != len(rbuf) {
				t.Fatalf("%v round %d: %d vs %d messages", mode, now, len(pm), len(rbuf))
			}
			for i := range pm {
				want, got := fmt.Sprintf("%+v", pm[i].To), fmt.Sprintf("%+v", rbuf[i].To)
				if want != got {
					t.Fatalf("%v round %d msg %d: target %s vs %s", mode, now, i, want, got)
				}
				if fmt.Sprintf("%+v", *pm[i].Gossip) != fmt.Sprintf("%+v", *rbuf[i].Gossip) {
					t.Fatalf("%v round %d msg %d: gossip diverged", mode, now, i)
				}
			}
		}
	}
}

// TestTickAppendSharesGossip pins the emission contract: every target of
// one TickAppend is handed the same read-only digest gossip, not a copy.
func TestTickAppendSharesGossip(t *testing.T) {
	n := totalNode(t, DefaultConfig())
	shared := n.TickAppend(1, nil)
	if len(shared) < 2 {
		t.Fatalf("got %d messages, want >= 2", len(shared))
	}
	for i := 1; i < len(shared); i++ {
		if shared[i].Gossip != shared[0].Gossip {
			t.Fatal("TickAppend messages do not share the round's gossip")
		}
	}
}
