package netmodel

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/stats"
)

// FuzzNet drives a Model through op lists the fuzzer writes, once on the
// round clock and once on an event clock whose 25 ms delay span is no
// multiple of its 10 ms period, so that the ring's generations are worked
// out from a period length other than 1: Classify with random senders,
// destinations, verdicts and ledgers at an instant that moves forward
// through the period (every arrival due before it drained first), and the
// end of a round (every due instant drained, each arrival settled by Arrive
// under a random verdict, EndPeriod). The driver keeps to the ring's
// ownership contract the way a harness does: each gossip is cut from an
// arena of the model's Generations(), which the end of a round rotates and
// which poisons what it takes back, and every arrival's gossip must still
// name its sender. After every op each ledger must be conserved and the
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
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkNet(t, ops, Clock{})
		checkNet(t, ops, Clock{PeriodMs: 10})
	})
}

// netGossip cuts from a the gossip a fuzzed sender emits in round round.
func netGossip(a *proto.EmitArena, from proto.ProcessID, round uint64) *proto.Gossip {
	g := a.Gossip()
	g.From = from
	g.Digest = a.IDs(1)
	g.Digest[0] = proto.EventID{Origin: from, Seq: uint32(round)}
	g.Events = a.Events(1)
	g.Events[0] = proto.Event{ID: proto.EventID{Origin: from, Seq: uint32(round) + 1}, Payload: []byte{byte(from), 1, 2}}
	return g
}

func checkNet(t *testing.T, ops []byte, clock Clock) {
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
	period := max(clock.PeriodMs, 1)
	if period > 1 { // the same draws, in milliseconds, on links that do not delay
		cfg.Topology = fault.TwoCluster{Split: 4, Local: wan.Local, WAN: fault.LinkProfile{Epsilon: wan.WAN.Epsilon}}
		cfg.Delay = fault.Millis{Model: fault.UniformDelay{Min: 0, Max: 25}}
	}
	if err := cfg.Validate(clock); err != nil {
		t.Fatal(err)
	}
	m := New(cfg, clock, lossRNG, delayRNG)
	m.SetPoison(true)
	var arena proto.EmitArena
	arena.SetGenerations(m.Generations())
	arena.SetPoison(PoisonGossip)
	var ledgers [3]stats.NetStats
	// The round, and the instant within it that the next Classify runs at.
	now, instant := uint64(1), uint64(1)
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
	settle := func(limit uint64, verdicts byte) {
		for at, ok := m.Due(limit); ok; at, ok = m.Due(limit) {
			msgs, owners := m.Drain(at, nil, nil)
			for i := range msgs {
				if g := msgs[i].Gossip; g != nil && (g.From != msgs[i].From || len(g.Digest) != 1 || g.Digest[0].Origin != g.From ||
					uint64(g.Digest[0].Seq)+uint64(m.Generations()) <= now || len(g.Events) != 1 || g.Events[0].ID.Seq != g.Digest[0].Seq+1) {
					t.Fatalf("round %d: a gossip from %d arrived as %+v", now, msgs[i].From, g)
				}
				v := verdicts >> (i % 4 * 2)
				Arrive(owners[i], v&1 == 0, v&2 == 0)
			}
		}
	}
	endRound := func(verdicts byte) {
		settle(now*period, verdicts)
		m.EndPeriod(now * period)
		arena.Reset()
		now++
		instant = now*period - period + 1
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
		instant = min(instant+uint64(b>>4), now*period)
		settle(instant-1, v)
		msg := proto.Message{Kind: proto.RetransmitRequestMsg, From: from, To: to, Request: []proto.EventID{{Origin: from, Seq: uint32(now)}}}
		if b%4 == 0 {
			msg = proto.Message{Kind: proto.GossipMsg, From: from, To: to, Gossip: netGossip(&arena, from, now)}
		}
		cut := fault.CutLink(cfg.Partitions, wan.Class(from, to), now)
		lossBefore, delayBefore := lossRNG.State(), delayRNG.State()
		oneDraw := *lossRNG
		oneDraw.Uint64() // where one loss draw leaves the stream
		ledger := &ledgers[int(v>>3)%len(ledgers)]
		before := *ledger
		delivered := m.Classify(&msg, now, instant, known, alive, ledger)
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
