package sim

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/proto"
)

// scriptProc stands in for an engine: each tick it emits what its script
// holds for the period, it logs every message it is handed, and it answers
// the k-th message it handles with resps[k] (a zero Message: no answer).
type scriptProc struct {
	id    proto.ProcessID
	ticks [][]proto.Message // per period, 1-based: what TickAppend emits
	resps []proto.Message
	next  int             // the answer to the next handled message
	got   []proto.Message // every message handled, in order
}

func (p *scriptProc) Self() proto.ProcessID { return p.id }

func (p *scriptProc) TickAppend(now uint64, out []proto.Message) []proto.Message {
	if now >= 1 && int(now) <= len(p.ticks) {
		out = append(out, p.ticks[now-1]...)
	}
	return out
}

func (p *scriptProc) HandleMessageAppend(m proto.Message, _ uint64, out []proto.Message) []proto.Message {
	p.got = append(p.got, m)
	if p.next < len(p.resps) {
		r := p.resps[p.next]
		p.next++
		if r.Kind != 0 {
			out = append(out, r)
		}
	}
	return out
}

// exactScript is one run of the exact-handling tests: what every process
// emits and answers, and what is routed between periods before the first.
type exactScript struct {
	ids     []proto.ProcessID
	lo, hi  []int           // the shards' process index ranges
	gossips []*proto.Gossip // process i's own gossip header, From ids[i]
	procs   []*scriptProc
	route   []proto.Message // handed to Cluster.Route before the first period
	periods int
	delayed bool // every message takes one period: fault.FixedDelay{Rounds: 1}
	// fromEntry is how many of the last hop's inbox entries must carry
	// their gossip (routed.g), or -1 for no check.
	fromEntry int
}

func newExactScript(n, w int) *exactScript {
	x := &exactScript{lo: make([]int, w), hi: make([]int, w), periods: 1, fromEntry: -1}
	for s := range x.lo {
		x.lo[s], x.hi[s] = shardRange(s, w, n)
	}
	for i := 0; i < n; i++ {
		id := proto.ProcessID(i + 1) // NewCluster's ids
		x.ids = append(x.ids, id)
		x.gossips = append(x.gossips, &proto.Gossip{From: id, Subs: []proto.ProcessID{id}})
		x.procs = append(x.procs, &scriptProc{id: id})
	}
	return x
}

// emit adds ms to what process i emits in period p.
func (x *exactScript) emit(p, i int, ms ...proto.Message) {
	sp := x.procs[i]
	for len(sp.ticks) < p {
		sp.ticks = append(sp.ticks, nil)
	}
	sp.ticks[p-1] = append(sp.ticks[p-1], ms...)
}

// gossip is process i's canonical gossip to process j: the form an engine
// emits and the executor hands over from the inbox entry.
func (x *exactScript) gossip(i, j int) proto.Message {
	return proto.Message{Kind: proto.GossipMsg, From: x.ids[i], To: x.ids[j], Gossip: x.gossips[i]}
}

// want is what every process must be handed, in order: a plain walk that
// hands each hop over in queue order, with no loss, crash or shard. Under
// the one-period delay a period's boundary hands over what the last period
// sent — its ticks first, then the answers to its own arrivals — and
// nothing is handed over in the period it is sent.
func (x *exactScript) want() [][]proto.Message {
	index := make(map[proto.ProcessID]int, len(x.ids))
	for i, id := range x.ids {
		index[id] = i
	}
	want := make([][]proto.Message, len(x.ids))
	next := make([]int, len(x.ids))
	hand := func(hop []proto.Message) (answers []proto.Message) {
		for _, m := range hop {
			di, ok := index[m.To]
			if !ok {
				continue
			}
			want[di] = append(want[di], m)
			if k := next[di]; k < len(x.procs[di].resps) {
				next[di]++
				if r := x.procs[di].resps[k]; r.Kind != 0 {
					answers = append(answers, r)
				}
			}
		}
		return answers
	}
	chase := func(hop []proto.Message) {
		for h := 0; h < maxChase && len(hop) > 0; h++ {
			hop = hand(hop)
		}
	}
	for _, m := range x.route {
		chase([]proto.Message{m})
	}
	var inFlight []proto.Message
	for p := 1; p <= x.periods; p++ {
		var ticks []proto.Message
		for _, sp := range x.procs {
			if p <= len(sp.ticks) {
				ticks = append(ticks, sp.ticks[p-1]...)
			}
		}
		if !x.delayed {
			chase(ticks)
			continue
		}
		arrived := inFlight
		inFlight = append(ticks, hand(arrived)...)
	}
	return want
}

// run drives the script on a cluster of w shards, poisoning on, and
// reports the first message handed over otherwise than the plain walk
// hands it, compared field by field, slices by identity.
func (x *exactScript) run(w int) error {
	opts := DefaultOptions(len(x.ids))
	opts.Epsilon, opts.Tau = 0, 0
	opts.Workers = w
	opts.PoisonRecycled = true
	if x.delayed {
		opts.Delay = fault.FixedDelay{Rounds: 1}
	}
	c, err := NewCluster(opts)
	if err != nil {
		return err
	}
	defer c.Close()
	for i, sp := range x.procs {
		if c.ids[i] != sp.id {
			return fmt.Errorf("process %d is %v, the script's is %v", i, c.ids[i], sp.id)
		}
		sp.next, sp.got = 0, nil
		c.procs[i] = sp
	}
	for _, m := range x.route {
		c.Route(m)
	}
	for p := 0; p < x.periods; p++ {
		c.RunRound()
	}
	for i, want := range x.want() {
		got := x.procs[i].got
		if len(got) != len(want) {
			return fmt.Errorf("process %d handled %d messages, want %d", i, len(got), len(want))
		}
		for k := range got {
			if d := messageDiff(got[k], want[k]); d != "" {
				return fmt.Errorf("process %d, message %d: %s", i, k, d)
			}
		}
	}
	if x.fromEntry >= 0 {
		held := 0
		for _, inbox := range c.exec.inboxes {
			for _, r := range inbox {
				if r.g != nil {
					held++
				}
			}
		}
		if held != x.fromEntry {
			return fmt.Errorf("%d inbox entries carry their gossip, want %d", held, x.fromEntry)
		}
	}
	return nil
}

// messageDiff describes how got differs from want, or is empty when every
// field is equal and every slice is the same slice.
func messageDiff(got, want proto.Message) string {
	switch {
	case got.Kind != want.Kind || got.From != want.From || got.To != want.To || got.Subscriber != want.Subscriber:
		return fmt.Sprintf("kind/from/to/subscriber %v/%v/%v/%v, want %v/%v/%v/%v",
			got.Kind, got.From, got.To, got.Subscriber, want.Kind, want.From, want.To, want.Subscriber)
	case got.Gossip != want.Gossip:
		return fmt.Sprintf("gossip %p, want %p", got.Gossip, want.Gossip)
	case !sameSlice(got.Request, want.Request):
		return "another Request"
	case !sameSlice(got.Reply, want.Reply):
		return "another Reply"
	case !sameSlice(got.ReplyHops, want.ReplyHops):
		return "another ReplyHops"
	}
	return ""
}

// sameSlice reports whether a and b are one slice: both nil, or the same
// array, length and capacity.
func sameSlice[T any](a, b []T) bool {
	return (a == nil) == (b == nil) && unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b) && cap(a) == cap(b)
}

// TestHandlingIsExact holds the executor to handing every process exactly
// the message that was sent to it — field by field, each slice the same
// slice — whether it hands a gossip over from the inbox entry (the
// canonical form, routed.g) or reads the message from its position: in
// the queue, in a tick outbox past it, or in the delay ring's arrivals.
// Each row runs on 1, 2 and 3 shards of a 7-process cluster, against the
// plain queue-order walk of exactScript.want; the block-edge rows
// (blockEdgeHop) hand every shard hops of 1 to 3·touchBlock+2 deliveries,
// as queued and grouped, with slot-read entries on the read-ahead's block
// edges.
//
// Mutations this test was seen to catch: asyncBin without the From check
// (the relayed gossip is handed over with its header's From); slot off by
// one shard (the last shard's request reads another shard's slot); the
// barrier's early return on an empty queue (a period whose shard 0 emits
// nothing handles nothing).
func TestHandlingIsExact(t *testing.T) {
	const n = 7
	rows := []struct {
		name   string
		script func(x *exactScript)
	}{
		{"canonical gossip", func(x *exactScript) {
			for i := range x.ids {
				x.emit(1, i, x.gossip(i, (i+1)%n), x.gossip(i, (i+3)%n))
			}
			x.fromEntry = 2 * n
		}},
		{"gossip whose From differs from its header's", func(x *exactScript) {
			for i := range x.ids {
				m := x.gossip(i, (i+1)%n)
				m.Gossip = x.gossips[(i+2)%n]
				x.emit(1, i, m)
			}
			x.fromEntry = 0
		}},
		{"gossip carrying a request", func(x *exactScript) {
			for i := range x.ids {
				m := x.gossip(i, (i+1)%n)
				m.Request = []proto.EventID{{Origin: x.ids[i], Seq: 1}}
				x.emit(1, i, m)
			}
			x.fromEntry = 0
		}},
		{"gossip with one more field set", func(x *exactScript) {
			for i := range x.ids {
				m := x.gossip(i, (i+1)%n)
				switch i % 5 {
				case 0:
					m.Subscriber = x.ids[i]
				case 1:
					m.Request = []proto.EventID{} // empty, not nil
				case 2:
					m.Reply = []proto.Event{{ID: proto.EventID{Origin: x.ids[i], Seq: 1}}}
				case 3:
					m.ReplyHops = []uint32{2}
				} // i%5 == 4 stays canonical
				x.emit(1, i, m)
			}
			x.fromEntry = 1
		}},
		{"nil gossip", func(x *exactScript) {
			for i := range x.ids {
				x.emit(1, i, proto.Message{Kind: proto.GossipMsg, From: x.ids[i], To: x.ids[(i+1)%n]})
			}
			x.fromEntry = 0
		}},
		{"subscription through Route", func(x *exactScript) {
			x.route = []proto.Message{{Kind: proto.SubscribeMsg, From: x.ids[0], To: x.ids[n-1], Subscriber: x.ids[0]}}
			// The contact answers with its gossip; the second hop is canonical.
			x.procs[n-1].resps = []proto.Message{x.gossip(n-1, 0)}
			x.periods, x.fromEntry = 0, 1
		}},
		{"request ticked by the last shard", func(x *exactScript) {
			for i := range x.ids {
				x.emit(1, i, x.gossip(i, (i+1)%n))
			}
			// Process n-1's request lies past the queue, in the last outbox,
			// behind its gossip; process 0 answers it with a reply.
			x.emit(1, n-1, proto.Message{Kind: proto.RetransmitRequestMsg, From: x.ids[n-1], To: x.ids[0],
				Request: []proto.EventID{{Origin: x.ids[2], Seq: 4}}})
			x.procs[0].resps = []proto.Message{{}, {Kind: proto.RetransmitReplyMsg, From: x.ids[0], To: x.ids[n-1],
				Reply: []proto.Event{{ID: proto.EventID{Origin: x.ids[2], Seq: 4}}}, ReplyHops: []uint32{1}}}
			x.fromEntry = 0
		}},
		{"delayed arrival", func(x *exactScript) {
			x.delayed, x.periods = true, 3
			for i := range x.ids {
				x.emit(1, i, x.gossip(i, (i+2)%n))
			}
			x.emit(1, 2, proto.Message{Kind: proto.RetransmitRequestMsg, From: x.ids[2], To: x.ids[5],
				Request: []proto.EventID{{Origin: x.ids[5], Seq: 1}}})
			x.emit(2, 4, proto.Message{Kind: proto.GossipMsg, From: x.ids[4], To: x.ids[1], Gossip: x.gossips[6]})
			// Process 5 answers the request, its first arrival, in period 2;
			// the answer lands in period 3.
			x.procs[5].resps = []proto.Message{{Kind: proto.RetransmitReplyMsg, From: x.ids[5], To: x.ids[2],
				Reply: []proto.Event{{ID: proto.EventID{Origin: x.ids[5], Seq: 1}}}}}
		}},
		{"shard 0 emits nothing", func(x *exactScript) {
			held := 0
			for i := x.hi[0]; i < n; i++ {
				x.emit(1, i, x.gossip(i, (i+2)%n))
				held++
			}
			if x.hi[0] < n {
				x.emit(1, n-1, proto.Message{Kind: proto.SubscribeMsg, From: x.ids[n-1], To: x.ids[0], Subscriber: x.ids[n-1]})
			}
			x.fromEntry = held
		}},
	}
	for _, row := range rows {
		for _, w := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", row.name, w), func(t *testing.T) {
				x := newExactScript(n, w)
				row.script(x)
				if err := x.run(w); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	// The block edges of handleShard's read-ahead, on shards of 50 to 150
	// processes: every shard is handed m deliveries, m around multiples of
	// touchBlock.
	for _, m := range []int{1, touchBlock - 1, touchBlock, touchBlock + 1, 2*touchBlock + 1, 3*touchBlock + 2} {
		for _, inOrder := range []bool{true, false} {
			for _, w := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("block edges/m=%d/in order=%v/workers=%d", m, inOrder, w), func(t *testing.T) {
					x := newExactScript(3*(3*touchBlock+2), w)
					x.fromEntry = blockEdgeHop(x, m, inOrder)
					if err := x.run(w); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// blockEdgeHop has process 0 emit one hop in period 1: m deliveries to
// every shard, interleaved across shards. They go to the shard's processes
// lo, lo+1, ... when inOrder, so that the shard handles them as queued, and
// otherwise to a few of its processes, repeated and stepping back, so that
// it handles them grouped. Each gossip has a header of its own with one
// element in each list the read-ahead loads. At the block edges of a
// shard's inbox (positions k·touchBlock−1 and k·touchBlock, k >= 1) the
// delivery is a pull, a reply or a nil gossip in turn, each read from its
// slot. It returns how many deliveries carry their gossip in their entry.
func blockEdgeHop(x *exactScript, m int, inOrder bool) (held int) {
	from := x.ids[0]
	edge := 0
	for k := 0; k < m; k++ {
		for s := range x.lo {
			di := x.lo[s] + k
			if !inOrder {
				di = x.lo[s] + (m-1-k)*7%13
			}
			to := x.ids[di]
			if k%touchBlock == touchBlock-1 || k > 0 && k%touchBlock == 0 {
				x.emit(1, 0, [...]proto.Message{
					{Kind: proto.RetransmitRequestMsg, From: from, To: to, Request: []proto.EventID{{Origin: to, Seq: 2}}},
					{Kind: proto.RetransmitReplyMsg, From: from, To: to, Reply: []proto.Event{{ID: proto.EventID{Origin: from, Seq: 3}}}},
					{Kind: proto.GossipMsg, From: from, To: to},
				}[edge%3])
				edge++
				continue
			}
			g := &proto.Gossip{From: from, Subs: []proto.ProcessID{to},
				Events: []proto.Event{{ID: proto.EventID{Origin: from, Seq: 1}}}, Digest: []proto.EventID{{Origin: to, Seq: 1}}}
			x.emit(1, 0, proto.Message{Kind: proto.GossipMsg, From: from, To: to, Gossip: g})
			held++
		}
	}
	return held
}

// FuzzHandlingIsExact runs fuzzer-written scripts through the executor and
// the plain walk: 1 to 3 shards of 3 to 10 processes, up to three periods,
// each process emitting up to seven messages a period of random kind and
// form — canonical gossips and every way to miss that form, subscriptions,
// requests, replies, to members or to an unknown process — whole shards
// silent in a period, and answers that chase further hops.
func FuzzHandlingIsExact(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 1, 0, 1, 2, 0, 2, 1, 0, 3})
	f.Add([]byte{2, 7, 2, 1, 3, 0, 1, 6, 5, 2, 3, 7, 1, 4, 2, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 0, 1, 2, 2, 7, 0, 3, 6, 1, 4, 2, 0, 9, 9, 9, 1, 1, 1, 2, 2, 2})
	// Ten processes on two shards emit seven messages each: a hop of 70, more
	// than two read-ahead blocks a shard, with pulls, replies and nil
	// gossips among the canonical gossips.
	long := []byte{1, 7, 0, 0}
	for i := range 10 {
		long = append(long, 7)
		for k := range 7 {
			long = append(long, byte(i+3*k)%10, []byte{0, 0, 5, 0, 6, 0, 3}[k])
		}
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		at := 0
		next := func(k int) int {
			if at >= len(data) {
				return 0
			}
			at++
			return int(data[at-1]) % k
		}
		w, n := 1+next(3), 3+next(8)
		x := newExactScript(n, w)
		x.periods = 1 + next(3)
		unknown := proto.ProcessID(n + 1)
		message := func(i int) proto.Message {
			to := unknown
			if j := next(n + 1); j < n {
				to = x.ids[j]
			}
			m := proto.Message{Kind: proto.GossipMsg, From: x.ids[i], To: to, Gossip: x.gossips[i]}
			switch next(9) {
			case 1:
				m.Gossip = x.gossips[next(n)]
			case 2:
				m.Request = []proto.EventID{{Origin: x.ids[i], Seq: 1}}
			case 3:
				m.Gossip = nil
			case 4:
				m.Kind, m.Gossip, m.Subscriber = proto.SubscribeMsg, nil, x.ids[i]
			case 5:
				m.Kind, m.Gossip, m.Request = proto.RetransmitRequestMsg, nil, []proto.EventID{{Origin: to, Seq: 2}}
			case 6:
				m.Kind, m.Gossip = proto.RetransmitReplyMsg, nil
				m.Reply, m.ReplyHops = []proto.Event{{ID: proto.EventID{Origin: x.ids[i], Seq: 3}}}, []uint32{1}
			case 7:
				m.ReplyHops = []uint32{}
			case 8:
				m.Subscriber = to
			}
			return m
		}
		for p := 1; p <= x.periods; p++ {
			silent := next(1 << w) // a bit per shard: it emits nothing this period
			for s := 0; s < w; s++ {
				for i := x.lo[s]; i < x.hi[s]; i++ {
					for k := next(8); k > 0 && silent&(1<<s) == 0; k-- {
						x.emit(p, i, message(i))
					}
				}
			}
		}
		for i := range x.procs {
			for k := next(4); k > 0; k-- {
				r := message(i)
				if next(2) == 0 {
					r = proto.Message{} // no answer
				}
				x.procs[i].resps = append(x.procs[i].resps, r)
			}
		}
		if err := x.run(w); err != nil {
			t.Fatal(err)
		}
	})
}
