package core

import (
	"fmt"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// Tests for the speculative emission seam: TickCompose+TickCommit must be
// indistinguishable from TickAppend, and any number of compose/abort
// cycles in between must leave no trace — the contract the simulator's
// wavefront async executor relies on for bit-for-bit determinism.

// twinEngines builds two identically seeded engines and runs the same
// warm-up traffic through both: seeded views, a published event, incoming
// gossip with subscriptions and an unsubscription (so the unsubs-expiry
// path is live), and buffered notifications.
func twinEngines(t *testing.T, mutate func(*Config)) (*Engine, *Engine) {
	t.Helper()
	build := func() *Engine {
		cfg := DefaultConfig()
		cfg.Membership.UnsubTTL = 3 // short TTL: expiry fires during the test rounds
		if mutate != nil {
			mutate(&cfg)
		}
		e, err := New(1, cfg, nil, rng.New(42))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		e.Seed([]proto.ProcessID{2, 3, 4, 5, 6})
		e.Publish([]byte("x"))
		e.HandleMessageAppend(proto.Message{Kind: proto.GossipMsg, From: 2, To: 1, Gossip: &proto.Gossip{
			From:   2,
			Subs:   []proto.ProcessID{7, 8},
			Unsubs: []proto.Unsubscription{{Process: 6, Stamp: 1}},
			Events: []proto.Event{{ID: proto.EventID{Origin: 2, Seq: 1}}},
		}}, 1, nil)
		return e
	}
	return build(), build()
}

// render canonicalizes an emission for comparison, expanding the shared
// gossip pointer so addresses do not leak into the comparison.
func render(msgs []proto.Message) string {
	s := ""
	for _, m := range msgs {
		g := m.Gossip
		m.Gossip = nil
		s += fmt.Sprintf("%+v", m)
		if g != nil {
			s += fmt.Sprintf("gossip{%+v}", *g)
		}
		s += "\n"
	}
	return s
}

// TestTickComposeCommitEqualsTickAppend: a committed compose is a
// TickAppend, in emitted messages, statistics, and all subsequent
// behavior, across several rounds with interleaved traffic.
func TestTickComposeCommitEqualsTickAppend(t *testing.T) {
	t.Parallel()
	for _, mode := range []struct {
		name string
		mut  func(*Config)
	}{
		{"flat", nil},
		{"compact", func(c *Config) { c.DigestMode = CompactDigest }},
		{"membership-every-2", func(c *Config) { c.MembershipEvery = 2 }},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			a, b := twinEngines(t, mode.mut)
			for now := uint64(2); now < 8; now++ {
				got := a.TickCompose(now, nil)
				a.TickCommit(now)
				want := b.TickAppend(now, nil)
				if render(got) != render(want) {
					t.Fatalf("now=%d: compose+commit emitted\n%s\nwant\n%s", now, render(got), render(want))
				}
				// Keep both buffers busy between ticks.
				g := proto.Gossip{From: 3, Events: []proto.Event{{ID: proto.EventID{Origin: 3, Seq: now}}}}
				a.HandleMessageAppend(proto.Message{Kind: proto.GossipMsg, From: 3, To: 1, Gossip: &g}, now, nil)
				b.HandleMessageAppend(proto.Message{Kind: proto.GossipMsg, From: 3, To: 1, Gossip: &g}, now, nil)
			}
			if a.Stats() != b.Stats() {
				t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
			}
		})
	}
}

// TestTickComposeAbortLeavesNoTrace: any number of compose/abort cycles —
// including with traffic arriving between abort and the final tick, the
// wavefront re-execution pattern — must leave the engine in exactly the
// state of a twin that never speculated.
func TestTickComposeAbortLeavesNoTrace(t *testing.T) {
	t.Parallel()
	a, b := twinEngines(t, nil)
	for now := uint64(2); now < 8; now++ {
		// Speculate and invalidate a few times; the last compose commits.
		for spec := 0; spec < 3; spec++ {
			_ = a.TickCompose(now, nil)
			a.TickAbort()
			// A delivery lands after the abort, before the re-execution —
			// both engines see it at the same point in their op order.
			g := proto.Gossip{From: 4, Digest: []proto.EventID{{Origin: 4, Seq: now*10 + uint64(spec)}}}
			m := proto.Message{Kind: proto.GossipMsg, From: 4, To: 1, Gossip: &g}
			a.HandleMessageAppend(m, now, nil)
			b.HandleMessageAppend(m, now, nil)
		}
		got := a.TickCompose(now, nil)
		a.TickCommit(now)
		want := b.TickAppend(now, nil)
		if render(got) != render(want) {
			t.Fatalf("now=%d: speculated engine emitted\n%s\nwant\n%s", now, render(got), render(want))
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if av, bv := fmt.Sprintf("%v", a.View()), fmt.Sprintf("%v", b.View()); av != bv {
		t.Errorf("views diverged: %s vs %s", av, bv)
	}
}
