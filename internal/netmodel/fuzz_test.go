package netmodel

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/stats"
)

// FuzzNet drives a Model through op lists the fuzzer writes: Classify with
// random senders, destinations, verdicts and ledgers, and the end of a round
// (every due instant drained, each arrival settled by Arrive under a random
// verdict, EndPeriod). After every op each ledger must be conserved and the
// ledgers' InFlight must add up to the envelopes parked in the ring; a
// message stopped by an unknown, partitioned or crashed destination must
// leave the loss and delay streams where they were, one that reaches the
// loss step must take exactly one loss draw, and only a survivor of the
// loss step may draw a delay.
func FuzzNet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 0, 0, 9, 9, 9, 2, 0, 2, 0})
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		ops := make([]byte, 64+r.Intn(512))
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		f.Add(ops)
	}
	f.Fuzz(checkNet)
}

// netGossips are the emissions the fuzzed senders carry: one gossip per
// sender whose contents never change, so every body the ring shares is
// shared rightly and the poisoning check stays quiet.
func netGossips() []*proto.Gossip {
	gs := make([]*proto.Gossip, 9)
	for i := range gs {
		gs[i] = &proto.Gossip{
			From:   proto.ProcessID(i),
			Digest: []proto.EventID{{Origin: proto.ProcessID(i), Seq: 1}},
			Events: []proto.Event{{ID: proto.EventID{Origin: proto.ProcessID(i), Seq: 2}, Payload: []byte{byte(i), 1, 2}}},
		}
	}
	return gs
}

func checkNet(t *testing.T, ops []byte) {
	lossRNG, delayRNG := rng.New(11), rng.New(12)
	cfg := Config{
		Epsilon:  0.25,
		Topology: wan,
		Delay:    fault.UniformDelay{Min: 0, Max: 3}, // every survivor draws
		Partitions: []fault.Partition{
			{From: 3, To: 6, Classes: []fault.LinkClass{fault.LinkWAN}},
			{From: 9, To: 11},
		},
	}
	if err := cfg.Validate(Clock{}); err != nil {
		t.Fatal(err)
	}
	m := New(cfg, Clock{}, lossRNG, delayRNG)
	m.SetPoison(true)
	gossips := netGossips()
	var ledgers [3]stats.NetStats
	now := uint64(1)
	next := func() byte { // the op list's next byte; 0 once it runs out
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	check := func(op string) {
		t.Helper()
		var inFlight uint64
		for i := range ledgers {
			if err := ledgers[i].Conserved(); err != nil {
				t.Fatalf("round %d, after %s: ledger %d: %v", now, op, i, err)
			}
			inFlight += ledgers[i].InFlight
		}
		if parked := m.parked(); inFlight != uint64(parked) {
			t.Fatalf("round %d, after %s: ledgers count %d in flight, the ring holds %d", now, op, inFlight, parked)
		}
	}
	endRound := func(verdicts byte) {
		for at, ok := m.Due(now); ok; at, ok = m.Due(now) {
			msgs, owners := m.Drain(at, nil, nil)
			for i := range msgs {
				v := verdicts >> (i % 4 * 2)
				Arrive(owners[i], v&1 == 0, v&2 == 0)
			}
		}
		m.EndPeriod(now)
		now++
	}
	for len(ops) > 0 {
		b := next()
		if b%4 == 3 {
			endRound(next())
			check("the end of a round")
			continue
		}
		from, to := proto.ProcessID(1+next()%8), proto.ProcessID(1+next()%8)
		v := next()
		known, alive := v%8 != 0, v%8 != 0 && v%8 != 1
		msg := proto.Message{Kind: proto.RetransmitRequestMsg, From: from, To: to, Request: []proto.EventID{{Origin: from, Seq: now}}}
		if b%4 == 0 {
			msg = proto.Message{Kind: proto.GossipMsg, From: from, To: to, Gossip: gossips[from]}
		}
		cut := fault.CutLink(cfg.Partitions, wan.Class(from, to), now)
		lossBefore, delayBefore := lossRNG.State(), delayRNG.State()
		oneDraw := *lossRNG
		oneDraw.Uint64() // where one loss draw leaves the stream
		ledger := &ledgers[int(v>>3)%len(ledgers)]
		before := *ledger
		delivered := m.Classify(&msg, now, now, known, alive, ledger)
		after := *ledger
		lost := after.Dropped > before.Dropped
		switch {
		case !known || cut || !alive:
			if lossRNG.State() != lossBefore || delayRNG.State() != delayBefore {
				t.Fatalf("round %d: a message stopped before the loss step (known=%v cut=%v alive=%v) drew", now, known, cut, alive)
			}
		case lossRNG.State() != oneDraw.State():
			t.Fatalf("round %d: a message that reached the loss step took other than one loss draw", now)
		case lost == (delayRNG.State() != delayBefore):
			t.Fatalf("round %d: lost=%v, but the delay stream moved=%v", now, lost, delayRNG.State() != delayBefore)
		}
		if delivered != (after.Delivered > before.Delivered) {
			t.Fatalf("round %d: Classify reported %v, the ledger went %+v -> %+v", now, delivered, before, after)
		}
		check("Classify")
	}
	// Drain the ring dry: every ledger ends with nothing in flight.
	for i := 0; i <= 3; i++ {
		endRound(0)
	}
	check("the last round")
	for i := range ledgers {
		if ledgers[i].InFlight != 0 {
			t.Fatalf("ledger %d still counts %d in flight after the ring drained", i, ledgers[i].InFlight)
		}
	}
}

// parked counts the envelopes in the ring's buckets.
func (m *Model) parked() int {
	n := 0
	for _, b := range m.fl.buckets {
		for s := b.head; s != nil; s = s.next {
			n++
		}
	}
	return n
}
