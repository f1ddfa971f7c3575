package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
)

// advertiser is a foreign Process that, in period 1 only, gossips process 1
// a digest naming a notification nobody holds, and never answers anything —
// so the pull it provokes can only time out.
type advertiser struct {
	self proto.ProcessID
}

func (p *advertiser) Self() proto.ProcessID { return p.self }

func (p *advertiser) TickAppend(now uint64, out []proto.Message) []proto.Message {
	if now != 1 || p.self != 2 {
		return out
	}
	return append(out, proto.Message{Kind: proto.GossipMsg, From: p.self, To: 1, Gossip: &proto.Gossip{
		From: p.self, Digest: []proto.EventID{{Origin: 77, Seq: 1}}}})
}

func (p *advertiser) HandleMessageAppend(_ proto.Message, _ uint64, out []proto.Message) []proto.Message {
	return out
}

// TestRetransmitTimeoutCountsPeriods pins the unit of
// core.Config.RetransmitTimeout under the simulator: engines are ticked
// with the period number on both clocks, so a timeout of 2 re-requests two
// periods after the request — on the event clock at PeriodMs=100 too, where
// a `now` in virtual milliseconds would have fired it after one.
func TestRetransmitTimeoutCountsPeriods(t *testing.T) {
	t.Parallel()
	for _, clock := range []Clock{ClockRounds, ClockEvent} {
		for _, async := range []bool{false, true} {
			t.Run(fmt.Sprintf("clock=%v/async=%v", clock, async), func(t *testing.T) {
				t.Parallel()
				o := DefaultOptions(20)
				o.Seed = 5
				o.Epsilon, o.Tau = 0, 0
				o.Clock, o.Async = clock, async
				if clock == ClockEvent {
					o.PeriodMs = 100
				}
				o.Lpbcast.AssumeFromDigest = false
				o.Lpbcast.Retransmit = true
				o.Lpbcast.RetransmitTimeout = 2
				c, err := NewCluster(o)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				for i := 1; i < o.N; i++ {
					c.procs[i] = &advertiser{self: c.ids[i]}
				}
				eng := c.procs[0].(*core.Engine)
				for period, want := range []uint64{0, 0, 1, 1} {
					c.RunRound()
					s := eng.Stats()
					if s.RetransmitRequests != 1 {
						t.Fatalf("period %d: %d ids requested, want the advertised one", period+1, s.RetransmitRequests)
					}
					if s.RetransmitTimeouts != want {
						t.Fatalf("period %d: %d timed-out re-requests, want %d (requested in period 1, timeout 2 periods)",
							period+1, s.RetransmitTimeouts, want)
					}
				}
			})
		}
	}
}
