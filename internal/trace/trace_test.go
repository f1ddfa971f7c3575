package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
)

func sample(kind Kind, n int) Event {
	return Event{
		When: time.Unix(0, int64(n)),
		Kind: kind,
		Node: 1,
		Peer: 2,
		N:    n,
	}
}

func TestKindStrings(t *testing.T) {
	t.Parallel()
	kinds := []Kind{
		KindGossipSent, KindGossipReceived, KindDeliver,
		KindRetransmitRequest, KindRetransmitServed, KindJoinSent,
		KindLeave, KindViewChange,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if Kind(99).String() != "kind(99)" {
		t.Error("unknown kind string wrong")
	}
}

func TestEventString(t *testing.T) {
	t.Parallel()
	e := Event{Kind: KindDeliver, Node: 1, Peer: 2, EventID: proto.EventID{Origin: 3, Seq: 4}, N: 5}
	s := e.String()
	for _, want := range []string{"deliver", "p1", "p2", "p3#4", "n=5"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
}

func TestRingRetainsRecent(t *testing.T) {
	t.Parallel()
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Record(sample(KindDeliver, i))
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot length %d", len(snap))
	}
	if snap[0].N != 3 || snap[2].N != 5 {
		t.Fatalf("wrong events retained: %v", snap)
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d", r.Total())
	}
}

func TestRingPartiallyFilled(t *testing.T) {
	t.Parallel()
	r := NewRing(10)
	r.Record(sample(KindDeliver, 1))
	r.Record(sample(KindDeliver, 2))
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].N != 1 || snap[1].N != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestRingDefaultCapacity(t *testing.T) {
	t.Parallel()
	r := NewRing(0)
	for i := 0; i < 300; i++ {
		r.Record(sample(KindDeliver, i))
	}
	if len(r.Snapshot()) != 256 {
		t.Fatalf("default capacity snapshot = %d", len(r.Snapshot()))
	}
}

func TestRingDump(t *testing.T) {
	t.Parallel()
	r := NewRing(4)
	r.Record(sample(KindGossipSent, 1))
	r.Record(sample(KindDeliver, 2))
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "gossip-sent") || !strings.Contains(out, "deliver") {
		t.Errorf("dump = %q", out)
	}
	if got := strings.Count(out, "\n"); got != 2 {
		t.Errorf("dump has %d lines", got)
	}
}

func TestCounters(t *testing.T) {
	t.Parallel()
	c := NewCounters()
	c.Record(sample(KindDeliver, 1))
	c.Record(sample(KindDeliver, 2))
	c.Record(sample(KindLeave, 3))
	if c.Count(KindDeliver) != 2 || c.Count(KindLeave) != 1 || c.Count(KindJoinSent) != 0 {
		t.Fatalf("counts wrong: %d %d %d", c.Count(KindDeliver), c.Count(KindLeave), c.Count(KindJoinSent))
	}
}

// funcTracer adapts a function to the Tracer interface.
type funcTracer func(Event)

func (f funcTracer) Record(e Event) { f(e) }

func TestMultiAndFunc(t *testing.T) {
	t.Parallel()
	c := NewCounters()
	var calls int
	var mu sync.Mutex
	m := Multi{c, funcTracer(func(Event) {
		mu.Lock()
		calls++
		mu.Unlock()
	})}
	m.Record(sample(KindDeliver, 1))
	if c.Count(KindDeliver) != 1 || calls != 1 {
		t.Fatal("multi did not fan out")
	}
}

func TestRingConcurrent(t *testing.T) {
	t.Parallel()
	r := NewRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(sample(KindDeliver, g*1000+i))
				if i%50 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 4000 {
		t.Fatalf("total = %d", r.Total())
	}
}

func BenchmarkRingRecord(b *testing.B) {
	r := NewRing(1024)
	e := sample(KindDeliver, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(e)
	}
}
