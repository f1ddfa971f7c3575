package pbcast

import (
	"fmt"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// Tests for the speculative emission seam (the pbcast side of the
// wavefront async executor's contract): TickCompose+TickCommit must equal
// TickAppend, compose/abort cycles must leave no trace — in particular
// the queued retransmission replies must stay queued and the per-message
// repetition counters must not advance for aborted advertisements.

// twinNodes builds two identically seeded nodes with a stored message, a
// pending solicited reply, and live membership traffic.
func twinNodes(t *testing.T, mutate func(*Config)) (*Node, *Node) {
	t.Helper()
	build := func() *Node {
		cfg := DefaultConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		n, err := New(1, cfg, nil, rng.New(9))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		n.Seed([]proto.ProcessID{2, 3, 4, 5, 6})
		ev := n.Publish([]byte("m"))
		// A solicitation queues a reply that must ride the next tick.
		n.HandleMessageAppend(proto.Message{
			Kind: proto.RetransmitRequestMsg, From: 7, To: 1,
			Request: []proto.EventID{ev.ID},
		}, 1, nil)
		return n
	}
	return build(), build()
}

// renderMsgs canonicalizes an emission for comparison, expanding the
// shared gossip pointer so addresses do not leak into the comparison.
func renderMsgs(msgs []proto.Message) string {
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

// TestNodeComposeCommitEqualsTickAppend: a committed compose is a
// TickAppend across rounds, in both view modes.
func TestNodeComposeCommitEqualsTickAppend(t *testing.T) {
	t.Parallel()
	for _, mode := range []struct {
		name string
		mut  func(*Config)
	}{
		{"partial", nil},
		{"total", func(c *Config) { c.Mode = TotalView }},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			a, b := twinNodes(t, mode.mut)
			if mode.name == "total" {
				all := []proto.ProcessID{1, 2, 3, 4, 5, 6}
				a.SetTotalView(all)
				b.SetTotalView(all)
			}
			for now := uint64(2); now < 8; now++ {
				got := a.TickCompose(now, nil)
				a.TickCommit(now)
				want := b.TickAppend(now, nil)
				if renderMsgs(got) != renderMsgs(want) {
					t.Fatalf("now=%d: compose+commit emitted\n%s\nwant\n%s", now, renderMsgs(got), renderMsgs(want))
				}
			}
			if a.Stats() != b.Stats() {
				t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
			}
		})
	}
}

// TestNodeComposeAbortLeavesNoTrace: aborted composes keep replies queued
// and repetition budgets intact, so the eventual committed tick matches a
// never-speculated twin exactly — including the digest contents governed
// by the Repetitions bound.
func TestNodeComposeAbortLeavesNoTrace(t *testing.T) {
	t.Parallel()
	a, b := twinNodes(t, func(c *Config) { c.Repetitions = 2 })
	for now := uint64(2); now < 8; now++ {
		for spec := 0; spec < 3; spec++ {
			out := a.TickCompose(now, nil)
			if now == 2 && len(out) == 0 {
				t.Fatal("compose emitted nothing despite queued reply")
			}
			a.TickAbort()
			// Traffic lands between the abort and the re-execution.
			g := proto.Gossip{From: 3, Digest: []proto.EventID{{Origin: 3, Seq: now}}}
			m := proto.Message{Kind: proto.GossipMsg, From: 3, To: 1, Gossip: &g}
			a.HandleMessageAppend(m, now, nil)
			b.HandleMessageAppend(m, now, nil)
		}
		got := a.TickCompose(now, nil)
		a.TickCommit(now)
		want := b.TickAppend(now, nil)
		if renderMsgs(got) != renderMsgs(want) {
			t.Fatalf("now=%d: speculated node emitted\n%s\nwant\n%s", now, renderMsgs(got), renderMsgs(want))
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}
