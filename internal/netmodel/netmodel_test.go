package netmodel

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/stats"
)

// wan is a two-cluster topology, processes 1-4 on one side and 5-8 on the
// other, whose WAN links lose half their traffic and delay it 0-3 rounds.
var wan = fault.TwoCluster{
	Split: 4,
	Local: fault.LinkProfile{Epsilon: -1},
	WAN:   fault.LinkProfile{Epsilon: 0.5, MinDelay: 0, MaxDelay: 3},
}

func TestConfigValidate(t *testing.T) {
	t.Parallel()
	rounds, event := Clock{}, Clock{PeriodMs: 100}
	millis := fault.Millis{Model: fault.FixedDelay{Rounds: 30}}
	cases := []struct {
		name  string
		cfg   Config
		clock Clock
		err   string // "" = valid
	}{
		{"flat", Config{Epsilon: 0.05}, rounds, ""},
		{"epsilon negative", Config{Epsilon: -0.1}, rounds, "epsilon"},
		{"epsilon one", Config{Epsilon: 1}, rounds, "epsilon"},
		{"bad delay", Config{Delay: fault.UniformDelay{Min: 3, Max: 1}}, rounds, "delay model"},
		{"bad topology", Config{Topology: fault.TwoCluster{}}, rounds, "topology"},
		{"topology delays", Config{Topology: wan}, rounds, ""},
		{"ring bound", Config{Delay: fault.FixedDelay{Rounds: MaxDelayRounds}}, rounds, ""},
		{"beyond ring bound", Config{Delay: fault.FixedDelay{Rounds: MaxDelayRounds + 1}}, rounds, "MaxDelay"},
		{"millis on the round clock", Config{Delay: millis}, rounds, "requires the event clock"},
		{"millis on an event clock", Config{Delay: millis}, event, ""},
		{"millis beside topology delays", Config{Delay: millis, Topology: wan}, event, "mixes"},
		{"round delay within the span", Config{Delay: fault.FixedDelay{Rounds: MaxSpanMs / 100}}, event, ""},
		{"round delay beyond the span", Config{Delay: fault.FixedDelay{Rounds: MaxSpanMs/100 + 1}}, event, "span"},
		{"partition", Config{Partitions: []fault.Partition{{From: 2, To: 5}}}, Clock{Horizon: 10}, ""},
		{"partition outside horizon", Config{Partitions: []fault.Partition{{From: 10, To: 12}}}, Clock{Horizon: 10}, "horizon"},
		{"partition class without topology", Config{Partitions: []fault.Partition{
			{From: 1, To: 5, Classes: []fault.LinkClass{fault.LinkWAN}},
		}}, rounds, "link class"},
		{"partition class with topology", Config{Topology: wan, Partitions: []fault.Partition{
			{From: 1, To: 5, Classes: []fault.LinkClass{fault.LinkWAN}},
		}}, rounds, ""},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate(tc.clock)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.err)
		}
	}
}

// TestArrivalSettlesIntoItsLedger: the ring hands every arrival back with
// the ledger it was classified into, and Arrive settles it there — one
// ledger's traffic never lands in another's counters.
func TestArrivalSettlesIntoItsLedger(t *testing.T) {
	t.Parallel()
	m := New(Config{Delay: fault.FixedDelay{Rounds: 2}}, Clock{}, rng.New(1), rng.New(2))
	var a, b stats.NetStats
	send := func(to proto.ProcessID, ledger *stats.NetStats) {
		msg := proto.Message{Kind: proto.RetransmitRequestMsg, From: 1, To: to, Request: []proto.EventID{{Origin: 1, Seq: uint64(to)}}}
		if m.Classify(&msg, 1, 1, true, true, ledger) {
			t.Fatal("a 2-round delay delivered in the send round")
		}
	}
	send(2, &a)
	send(3, &b)
	send(4, &a)
	send(5, &b)
	send(6, &a)
	if a.InFlight != 3 || b.InFlight != 2 {
		t.Fatalf("in flight: %d and %d, want 3 and 2", a.InFlight, b.InFlight)
	}
	if _, ok := m.Due(2); ok {
		t.Fatal("an arrival is due before its instant")
	}
	at, ok := m.Due(3)
	if !ok || at != 3 {
		t.Fatalf("Due(3) = %d, %v; want 3, true", at, ok)
	}
	msgs, ledgers := m.Drain(3, nil, nil)
	if len(msgs) != 5 || len(ledgers) != 5 {
		t.Fatalf("drained %d messages and %d ledgers, want 5", len(msgs), len(ledgers))
	}
	for i, msg := range msgs {
		want := &a
		if msg.To%2 == 1 {
			want = &b
		}
		if ledgers[i] != want || msg.Request[0].Seq != uint64(msg.To) {
			t.Fatalf("arrival %d (to %d) came back with the wrong ledger or contents", i, msg.To)
		}
		// The destination of the last one crashed while it was in the air.
		Arrive(ledgers[i], true, msg.To != 6)
	}
	m.EndPeriod(3)
	if want := (stats.NetStats{Sent: 3, Delivered: 2, DeliveredLate: 2, ToCrashed: 1}); a != want {
		t.Errorf("ledger a = %+v, want %+v", a, want)
	}
	if want := (stats.NetStats{Sent: 2, Delivered: 2, DeliveredLate: 2}); b != want {
		t.Errorf("ledger b = %+v, want %+v", b, want)
	}
}

// TestMulticastFilter: a first-phase copy goes through the partition and
// crash steps like any message, draws the phase's probability only when it
// gets past them, and never enters the ring.
func TestMulticastFilter(t *testing.T) {
	t.Parallel()
	cfg := Config{Topology: wan, Partitions: []fault.Partition{{From: 1, To: 2, Classes: []fault.LinkClass{fault.LinkWAN}}}}
	phase := rng.New(7)
	m := New(cfg, Clock{}, rng.New(1), rng.New(2))
	var s stats.NetStats
	before := phase.State()
	if m.Multicast(1, 5, 1, true, &s, phase, 0.5) || m.Multicast(1, 2, 1, false, &s, phase, 0.5) {
		t.Fatal("a cut or crashed copy was delivered")
	}
	if phase.State() != before {
		t.Fatal("a cut or crashed copy drew from the phase's stream")
	}
	delivered := 0
	for i := 0; i < 200; i++ {
		if m.Multicast(1, 2, 2, true, &s, phase, 0.5) {
			delivered++
		}
	}
	if delivered < 50 || delivered > 150 {
		t.Errorf("p=0.5 delivered %d of 200", delivered)
	}
	if s.DroppedInPartition != 1 || s.ToCrashed != 1 || s.Delivered != uint64(delivered) || s.InFlight != 0 {
		t.Errorf("counters %+v", s)
	}
	if err := s.Conserved(); err != nil {
		t.Error(err)
	}
}
