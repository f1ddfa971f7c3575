package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
)

// Tests of a cluster built empty (NewEmptyCluster), whose membership
// changes between periods: the pub/sub Bus's driver.

// TestNewEmptyClusterValidates: an empty cluster is one synchronous shard
// on the round clock without crashes, over a valid network.
func TestNewEmptyClusterValidates(t *testing.T) {
	t.Parallel()
	bad := map[string]Options{
		"n":       {N: 4},
		"tau":     {Tau: 0.1},
		"async":   {Async: true},
		"workers": {RunConfig: RunConfig{Workers: 2}},
		"clock":   {RunConfig: RunConfig{Clock: ClockEvent}},
		"epsilon": {Epsilon: 1.5},
		"millis":  {Delay: fault.Millis{Model: fault.FixedDelay{Rounds: 30}}},
	}
	for name, opts := range bad {
		if _, err := NewEmptyCluster(opts, rng.New(1)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewEmptyCluster(Options{Epsilon: 0.05, Delay: fault.FixedDelay{Rounds: 2}}, rng.New(1)); err != nil {
		t.Errorf("valid options refused: %v", err)
	}
}

// TestTruncatedChaseLedgers: a chase cut at maxChase is counted as
// TruncatedChase in each sender's own ledger. Two ping-pong pairs run on
// one cluster, each pair counting in its own ledger: each pair's two
// chains are cut once each, and nothing lands in the cluster's own
// counters.
func TestTruncatedChaseLedgers(t *testing.T) {
	t.Parallel()
	c, err := NewEmptyCluster(Options{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var a, b NetStats
	c.Add(&chatter{self: 1, peer: 2}, &a)
	c.Add(&chatter{self: 2, peer: 1}, &a)
	c.Add(&chatter{self: 3, peer: 4}, &b)
	c.Add(&chatter{self: 4, peer: 3}, &b)
	c.RunRound()
	for name, s := range map[string]NetStats{"a": a, "b": b} {
		if s.TruncatedChase != 2 {
			t.Errorf("ledger %s: TruncatedChase = %d, want 2 (%+v)", name, s.TruncatedChase, s)
		}
		if s.Delivered != 2*maxChase {
			t.Errorf("ledger %s: Delivered = %d, want %d (%+v)", name, s.Delivered, 2*maxChase, s)
		}
		assertConserved(t, s)
	}
	if s := c.NetStats(); s != (NetStats{}) {
		t.Errorf("the cluster's own counters moved: %+v", s)
	}
}

// memberDriver steps a cluster built empty: through its executor
// (*Cluster) or through the reference walk (*seqRef).
type memberDriver interface {
	RunRound()
	Add(p Process, ledger *NetStats)
	Remove(pid proto.ProcessID)
	Route(m proto.Message)
}

// membershipRun runs a fixed script of joins and leaves on an empty
// cluster, under loss, retransmission and a WAN whose 1–2 round delays
// land messages on members that have left, and returns its transcript:
// every round's deliveries (sorted: the handling-order contract leaves the
// order across processes unspecified) and both ledgers, each conserved,
// then every live view. Leaves free slots that stay empty for some
// rounds, and later joins take them back; the transcript's last line
// records both.
func membershipRun(t *testing.T, ref, poison bool) string {
	t.Helper()
	root := rng.New(5)
	c, err := NewEmptyCluster(Options{
		Epsilon: 0.05,
		Topology: fault.TwoCluster{
			Split: 8,
			Local: fault.LinkProfile{Epsilon: -1},
			WAN:   fault.LinkProfile{Epsilon: -1, MinDelay: 1, MaxDelay: 2},
		},
		RunConfig: RunConfig{PoisonRecycled: poison},
	}, root)
	if err != nil {
		t.Fatal(err)
	}
	var d memberDriver = c
	if ref {
		d = &seqRef{Cluster: c}
	}
	cfg := core.DefaultConfig()
	cfg.Retransmit = true
	cfg.Membership.MaxView = 6
	var (
		ledgers [2]NetStats
		live    []*core.Engine
		round   []string
		out     strings.Builder
		next    proto.ProcessID = 1
	)
	// join adds the next process; its first contact is the oldest live one.
	join := func() {
		pid := next
		next++
		eng, err := core.New(pid, cfg, func(ev proto.Event) {
			round = append(round, fmt.Sprintf("p%d:%v", pid, ev.ID))
		}, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		var req proto.Message
		if len(live) > 0 {
			if req, err = eng.JoinVia(live[0].Self()); err != nil {
				t.Fatal(err)
			}
		}
		d.Add(eng, &ledgers[pid%2])
		live = append(live, eng)
		if len(live) > 1 {
			d.Route(req)
		}
	}
	leave := func(k int) {
		d.Remove(live[k].Self())
		live = slices.Delete(live, k, k+1)
	}
	for i := 0; i < 10; i++ {
		join()
	}
	maxLive, emptyRounds := 0, 0
	for r := 1; r <= 30; r++ {
		switch {
		case r%6 == 2:
			leave(3)
			leave(1)
			leave(len(live) - 1)
		case r%6 == 4:
			join()
		case r%6 == 5:
			join()
			join()
		}
		if r%4 == 1 {
			if _, err := live[r%len(live)].Publish([]byte{byte(r)}); err != nil {
				t.Fatal(err)
			}
		}
		maxLive = max(maxLive, len(live))
		if len(live) < len(c.procs) {
			emptyRounds++
		}
		d.RunRound()
		assertConserved(t, ledgers[0])
		assertConserved(t, ledgers[1])
		slices.Sort(round)
		fmt.Fprintf(&out, "r%d %s\n%+v\n%+v\n", r, strings.Join(round, " "), ledgers[0], ledgers[1])
		round = round[:0]
	}
	for _, e := range live {
		fmt.Fprintf(&out, "view p%d %v\n", e.Self(), e.View())
	}
	fmt.Fprintf(&out, "processes %d, slots %d, rounds with an empty slot %d\n", next-1, len(c.procs), emptyRounds)
	if len(c.procs) != maxLive || int(next-1) <= len(c.procs) || emptyRounds == 0 {
		t.Errorf("the script neither left slots empty nor reused them: %d processes, %d slots, at most %d live, %d rounds with an empty slot",
			next-1, len(c.procs), maxLive, emptyRounds)
	}
	return out.String()
}

// TestMembershipChangeMatchesRef: a cluster whose processes come and go
// between periods gives the reference walk's result byte for byte, with
// buffer poisoning off and on.
func TestMembershipChangeMatchesRef(t *testing.T) {
	t.Parallel()
	want := membershipRun(t, true, false)
	if !strings.Contains(want, "r30 p") {
		t.Fatalf("nothing delivered in the last round:\n%s", want)
	}
	for _, poison := range []bool{false, true} {
		if got := membershipRun(t, false, poison); got != want {
			t.Errorf("poison=%v: executor diverges from the reference:\n%s\nwant:\n%s", poison, got, want)
		}
	}
}
