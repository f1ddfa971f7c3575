package sim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// handleProbe stands in for an engine: it logs what it is handed — in its
// own order, and in its shard's — and answers the messages whose tag is a
// multiple of three, two responses each, so that the spans of a grouped hop
// come out of queue order.
type handleProbe struct {
	id    proto.ProcessID
	got   []int  // tags handled, in order
	shard *[]int // destination indices handled by the shard, in order
	di    int
}

func (p *handleProbe) Self() proto.ProcessID { return p.id }

func (p *handleProbe) TickAppend(_ uint64, out []proto.Message) []proto.Message { return out }

func (p *handleProbe) HandleMessageAppend(m proto.Message, _ uint64, out []proto.Message) []proto.Message {
	tag := int(m.Subscriber)
	if m.Gossip != nil { // a canonical gossip carries its tag in its header
		tag = int(m.Gossip.Subs[0])
	}
	p.got = append(p.got, tag)
	*p.shard = append(*p.shard, p.di)
	if !answered(tag) {
		return out
	}
	reply := proto.Message{From: p.id, Subscriber: proto.ProcessID(tag)}
	return append(out, reply, reply)
}

func answered(tag int) bool { return tag%3 == 0 }

// groupingHop is one hand-built barrier hop of TestHandleShardGrouping.
type groupingHop struct {
	name  string
	dests []int // destination index per surviving message, in queue order
}

// TestHandleShardGrouping drives handleShard and mergeResponses alone, on
// hand-built hops. Whatever order a shard handles its inbox in, three things
// must hold — every binned message is handled exactly once, one process sees
// its messages in queue order, and every shard's spans end up ascending by
// pos (so the merged next hop is in trigger order) — and the order it does
// choose must walk the shard's processes in ascending index, each
// destination's messages together: the handled destinations never decrease
// within a hop. A hop whose destinations are already distinct and ascending
// in every shard is handled as queued (byDestination returns nil), and no
// other is. All hops of one worker count run on one executor, back to back,
// so whatever one barrier leaves in the scratch meets the next. The second
// cluster's shards are more than 64 processes wide, and its hops address
// processes at 64-bit word edges of a shard. Both clusters take hops of 1 to
// 3·touchBlock+2 messages (a shard, on the wide one, in ascending and in
// stepping-back order) around the block edges of handleShard's read-ahead.
// Every hop runs in three forms:
// its messages read from their queue slots, canonical gossips handed over
// from their inbox entries (routed.g), and the two alternating.
//
// Mutations this test was seen to catch: the groups left in first-touch
// order; the spans left in handling order; a group filled back to front (one
// process's messages reversed); count not zeroed after a hop (the next
// hop's groups overlap, messages are handled twice or never); an in-order
// check that accepts a repeated destination or a step back. The
// equivalence suites (seqref_test.go's plain queue-order walks are their
// oracle) catch the spans and the reversed group as well, on their
// retransmit rows.
func TestHandleShardGrouping(t *testing.T) {
	gen := rng.New(5)
	random := func(msgs, dests int) []int {
		out := make([]int, msgs)
		for i := range out {
			out[i] = gen.Intn(dests)
		}
		return out
	}
	// edges are the word edges of a shard starting at lo.
	edges := func(lo int, offs ...int) []int {
		out := make([]int, len(offs))
		for i, o := range offs {
			out[i] = lo + o
		}
		return out
	}
	clusters := []struct {
		name    string // the subtests' prefix
		n       int
		workers []int
		hops    []groupingHop
	}{
		{n: 11, workers: []int{1, 3}, hops: []groupingHop{ // three shards of 4, 4 and 3
			{"empty", nil},
			{"one message", []int{4}},
			{"all one destination", []int{6, 6, 6, 6, 6, 6, 6}},
			{"all distinct", []int{3, 9, 0, 10, 5, 1, 7}},
			{"distinct and ascending", []int{0, 1, 3, 4, 6, 7, 9, 10}},
			{"pairs", []int{2, 8, 2, 8, 0, 0}},
			{"ascending, one repeat", []int{0, 1, 2, 2, 5, 9}},
			{"descending", []int{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}},
			{"random, few repeats", random(14, 11)},
			{"random, many repeats", random(60, 11)},
			{"random, three destinations", random(40, 3)},
			{"one message again", []int{0}},
			{"random, long", random(500, 11)},
		}},
		{name: "wide/", n: 260, workers: []int{1, 2}, hops: []groupingHop{ // two shards of 130
			{"word edges ascending", append(edges(0, 0, 63, 64, 127, 128), edges(130, 0, 63, 64, 127, 128)...)},
			{"word edges descending", append(edges(130, 128, 127, 64, 63, 0), edges(0, 128, 127, 64, 63, 0)...)},
			{"word edges repeated", append(edges(0, 128, 64, 0, 63, 127, 64, 128, 0), edges(130, 63, 0, 127, 63)...)},
			{"word edges, one step back", edges(0, 127, 0)},
			{"random, long", random(800, 260)},
		}},
	}
	// perShard is a hop of m messages to each shard starting at one of los,
	// interleaved across the shards: to the shard's processes lo, lo+1, ...
	// when ascending, otherwise to a few of them, repeated and stepping back.
	perShard := func(m int, ascending bool, los ...int) []int {
		var out []int
		for k := 0; k < m; k++ {
			for _, lo := range los {
				if ascending {
					out = append(out, lo+k)
				} else {
					out = append(out, lo+(m-1-k)*7%13)
				}
			}
		}
		return out
	}
	// The block edges of handleShard's read-ahead.
	for _, m := range []int{1, touchBlock - 1, touchBlock, touchBlock + 1, 2*touchBlock + 1, 3*touchBlock + 2} {
		clusters[0].hops = append(clusters[0].hops, groupingHop{fmt.Sprintf("block edges, %d random", m), random(m, 11)})
		clusters[1].hops = append(clusters[1].hops,
			groupingHop{fmt.Sprintf("block edges, %d a shard ascending", m), perShard(m, true, 0, 130)},
			groupingHop{fmt.Sprintf("block edges, %d a shard out of order", m), perShard(m, false, 0, 130)})
	}
	for _, cl := range clusters {
		for _, workers := range cl.workers {
			t.Run(fmt.Sprintf("%sworkers=%d", cl.name, workers), func(t *testing.T) {
				checkGrouping(t, cl.n, workers, cl.hops)
			})
		}
	}
}

// checkGrouping runs hops, in turn, on one n-process cluster of the given
// shard count whose processes are handleProbes; see TestHandleShardGrouping.
func checkGrouping(t *testing.T, n, workers int, hops []groupingHop) {
	opts := DefaultOptions(n)
	opts.Workers = workers
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e := c.exec
	probes := make([]*handleProbe, n)
	shardLogs := make([][]int, workers)
	for i := range probes {
		probes[i] = &handleProbe{id: c.ids[i], di: i, shard: &shardLogs[e.shardOf[i]]}
		c.procs[i] = probes[i]
	}
	for k := range 3 * len(hops) {
		hop, form := hops[k%len(hops)], k/len(hops) // 0: slots, 1: gossips, 2: both
		for _, p := range probes {
			p.got = p.got[:0]
		}
		for s := range shardLogs {
			shardLogs[s] = shardLogs[s][:0]
		}
		// The queue carries a filtered-out message before every
		// survivor, so pos and inbox index differ.
		e.queue = e.queue[:0]
		e.clearInboxes()
		want := make([][]int, n)             // per destination: tags in queue order
		var wantNext []int                   // tags answered, in queue order, twice each
		shardDests := make([][]int, workers) // per shard: destinations in queue order
		fromEntry := 0                       // canonical gossips binned
		for _, di := range hop.dests {
			e.queue = append(e.queue, proto.Message{Subscriber: proto.ProcessID(1 << 20)})
			tag := len(e.queue)
			m := proto.Message{To: c.ids[di], Subscriber: proto.ProcessID(tag)}
			if form == 1 || form == 2 && tag%4 == 1 {
				g := &proto.Gossip{From: c.ids[0], Subs: []proto.ProcessID{proto.ProcessID(tag)}}
				m = proto.Message{Kind: proto.GossipMsg, From: g.From, To: c.ids[di], Gossip: g}
				fromEntry++
			}
			e.queue = append(e.queue, m)
			e.asyncBin(tag, di, &e.queue[tag])
			want[di] = append(want[di], tag)
			if answered(tag) {
				wantNext = append(wantNext, tag, tag)
			}
			s := e.shardOf[di]
			shardDests[s] = append(shardDests[s], di)
		}
		held := 0
		for _, inbox := range e.inboxes {
			for _, r := range inbox {
				if r.g != nil {
					held++
				}
			}
		}
		if held != fromEntry {
			t.Fatalf("%s (form %d): %d inbox entries carry their gossip, want %d", hop.name, form, held, fromEntry)
		}
		e.parallel(e.handleFn)
		e.mergeResponses()

		for di, p := range probes {
			if !slices.Equal(p.got, want[di]) {
				t.Fatalf("%s (form %d): process %d handled %v, queue order is %v", hop.name, form, di, p.got, want[di])
			}
		}
		for s, log := range shardLogs {
			if !slices.IsSorted(log) {
				t.Fatalf("%s (form %d): shard %d handled its processes out of index order: %v", hop.name, form, s, log)
			}
			if !slices.IsSortedFunc(e.spans[s], func(a, b respSpan) int { return int(a.pos - b.pos) }) {
				t.Fatalf("%s (form %d): shard %d spans not ascending by pos: %v", hop.name, form, s, e.spans[s])
			}
			// The inbox is still binned: ask again which path the hop took.
			asQueued := true // destinations distinct and ascending
			for k := 1; k < len(shardDests[s]); k++ {
				asQueued = asQueued && shardDests[s][k-1] < shardDests[s][k]
			}
			if got := e.byDestination(s) == nil; got != asQueued {
				t.Fatalf("%s (form %d): shard %d destinations %v: handled as queued %v, want %v", hop.name, form, s, shardDests[s], got, asQueued)
			}
		}
		var next []int
		for _, m := range e.next {
			next = append(next, int(m.Subscriber))
		}
		if !slices.Equal(next, wantNext) {
			t.Fatalf("%s (form %d): next hop %v, trigger order is %v", hop.name, form, next, wantNext)
		}
		for s := range e.groups {
			if i := slices.IndexFunc(e.groups[s].count, func(v int32) bool { return v != 0 }); i >= 0 {
				t.Fatalf("%s (form %d): shard %d leaves count[%d] = %d behind", hop.name, form, s, i, e.groups[s].count[i])
			}
		}
	}
}
