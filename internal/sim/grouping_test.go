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
	fakeProcess
	id    proto.ProcessID
	got   []int  // tags handled, in order
	shard *[]int // destination indices handled by the shard, in order
	di    int
}

func (p *handleProbe) Self() proto.ProcessID { return p.id }

func (p *handleProbe) TickCompose(_ uint64, out []proto.Message) []proto.Message { return out }

func (p *handleProbe) HandleMessageAppend(m proto.Message, _ uint64, out []proto.Message) []proto.Message {
	tag := int(m.Subscriber)
	p.got = append(p.got, tag)
	*p.shard = append(*p.shard, p.di)
	if !answered(tag) {
		return out
	}
	reply := proto.Message{From: p.id, Subscriber: m.Subscriber}
	return append(out, reply, reply)
}

func answered(tag int) bool { return tag%3 == 0 }

// TestHandleShardGrouping drives handleShard and mergeResponses alone, on
// hand-built hops. Whatever order a shard handles its inbox in, three things
// must hold — every binned message is handled exactly once, one process sees
// its messages in queue order, and every shard's spans end up ascending by
// pos (so the merged next hop is in trigger order) — and the order it does
// choose must keep each destination's messages together. All hops of one
// worker count run on one executor, back to back, so whatever one barrier
// leaves in the scratch meets the next.
//
// Mutations this test was seen to catch: the spans left in handling order;
// a group filled back to front (one process's messages reversed); count not
// zeroed after a hop (the next hop's groups overlap, messages are handled
// twice or never); the all-distinct hop returning before it zeroes count.
// The equivalence suites (seqref_test.go's plain queue-order walks are
// their oracle) catch the first three as well, on their retransmit rows.
func TestHandleShardGrouping(t *testing.T) {
	const n = 11 // three shards of 4, 4 and 3
	gen := rng.New(5)
	random := func(msgs, dests int) []int {
		out := make([]int, msgs)
		for i := range out {
			out[i] = gen.Intn(dests)
		}
		return out
	}
	hops := []struct {
		name  string
		dests []int // destination index per surviving message, in queue order
	}{
		{"empty", nil},
		{"one message", []int{4}},
		{"all one destination", []int{6, 6, 6, 6, 6, 6, 6}},
		{"all distinct", []int{3, 9, 0, 10, 5, 1, 7}},
		{"pairs", []int{2, 8, 2, 8, 0, 0}},
		{"all distinct again", []int{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}},
		{"random, few repeats", random(14, n)},
		{"random, many repeats", random(60, n)},
		{"random, three destinations", random(40, 3)},
		{"one message again", []int{0}},
		{"random, long", random(500, n)},
	}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
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
			for _, hop := range hops {
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
				want := make([][]int, n) // per destination: tags in queue order
				var wantNext []int       // tags answered, in queue order, twice each
				for _, di := range hop.dests {
					e.queue = append(e.queue, proto.Message{Subscriber: proto.ProcessID(1 << 20)})
					tag := len(e.queue)
					e.queue = append(e.queue, proto.Message{To: c.ids[di], Subscriber: proto.ProcessID(tag)})
					e.asyncBin(tag, di)
					want[di] = append(want[di], tag)
					if answered(tag) {
						wantNext = append(wantNext, tag, tag)
					}
				}
				e.parallel(e.handleFn)
				e.mergeResponses()

				for di, p := range probes {
					if !slices.Equal(p.got, want[di]) {
						t.Fatalf("%s: process %d handled %v, queue order is %v", hop.name, di, p.got, want[di])
					}
				}
				for s, log := range shardLogs {
					closed := map[int]bool{}
					for k, di := range log {
						if k > 0 && log[k-1] != di {
							closed[log[k-1]] = true
						}
						if closed[di] {
							t.Fatalf("%s: shard %d came back to process %d: %v", hop.name, s, di, log)
						}
					}
					if !slices.IsSortedFunc(e.spans[s], func(a, b respSpan) int { return a.pos - b.pos }) {
						t.Fatalf("%s: shard %d spans not ascending by pos: %v", hop.name, s, e.spans[s])
					}
				}
				var next []int
				for _, m := range e.next {
					next = append(next, int(m.Subscriber))
				}
				if !slices.Equal(next, wantNext) {
					t.Fatalf("%s: next hop %v, trigger order is %v", hop.name, next, wantNext)
				}
				for s := range e.groups {
					if i := slices.IndexFunc(e.groups[s].count, func(v int32) bool { return v != 0 }); i >= 0 {
						t.Fatalf("%s: shard %d leaves count[%d] = %d behind", hop.name, s, i, e.groups[s].count[i])
					}
				}
			}
		})
	}
}
