package proto

import "testing"

// TestEmitArenaRuns: every run has exactly the length asked for and no
// capacity past it, so an append to one cannot run into the next, and Reset
// zeroes what was handed out while keeping the storage.
func TestEmitArenaRuns(t *testing.T) {
	t.Parallel()
	var a EmitArena
	g := a.Gossip()
	g.From = 7
	g.Events = a.Events(3)
	g.Digest = a.IDs(5)
	g.Subs = a.PIDs(2)
	g.Unsubs = a.Unsubs(1)
	next := a.IDs(4)
	for _, n := range []struct{ len, cap int }{
		{len(g.Events), cap(g.Events)}, {len(g.Digest), cap(g.Digest)},
		{len(g.Subs), cap(g.Subs)}, {len(g.Unsubs), cap(g.Unsubs)},
	} {
		if n.len != n.cap {
			t.Fatalf("a run of %d has capacity %d", n.len, n.cap)
		}
	}
	g.Digest = append(g.Digest[:5], EventID{Origin: 1, Seq: 1})
	if next[0] != (EventID{}) {
		t.Fatal("an append past a run wrote into the next run")
	}
	g.Subs[0] = 3
	size := a.Size()
	if size == 0 {
		t.Fatal("an arena that handed out runs keeps no storage")
	}
	subs := g.Subs
	a.Reset()
	if g.From != NilProcess || subs[0] != NilProcess {
		t.Fatal("Reset left what it handed out in place")
	}
	if a.Size() != size {
		t.Fatalf("Reset changed the storage kept: %d B, was %d", a.Size(), size)
	}
}

// TestEmitterTick pins the three ways an emitter hands out its arena: a
// bound one is its driver's, never reset by a tick; an unbound one under
// reuse resets its private arena at each tick; an unbound one without
// reuse starts a fresh arena, so an earlier emission stays intact.
func TestEmitterTick(t *testing.T) {
	t.Parallel()
	var fresh Emitter
	a := fresh.Tick()
	a.Gossip().From = 1
	if b := fresh.Tick(); b == a || a.Size() == 0 {
		t.Fatal("without reuse a tick did not start a fresh arena")
	}

	var reuse Emitter
	reuse.SetReuse(true)
	a = reuse.Tick()
	g := a.Gossip()
	g.From = 1
	if reuse.Tick() != a || g.From != NilProcess {
		t.Fatal("under reuse a tick did not reset the private arena")
	}

	var shared EmitArena
	var bound Emitter
	bound.SetReuse(true)
	bound.Bind(&shared)
	g = bound.Tick().Gossip()
	g.From = 1
	if bound.Tick() != &shared || g.From != 1 {
		t.Fatal("a tick reset or replaced its driver's arena")
	}
	bound.Bind(nil)
	if bound.Tick() == &shared {
		t.Fatal("an unbound emitter still cuts from the driver's arena")
	}
}

// TestEmitArenaGenerations: with G generations, a run cut in period p
// stays intact through the next G-1 Resets — each period cutting as much
// again — and is taken back and zeroed by the G-th. In the poisoning mode
// every gossip header is handed to the poison function exactly once, at
// that G-th Reset and with its contents still in place. Size counts every
// generation.
func TestEmitArenaGenerations(t *testing.T) {
	t.Parallel()
	for _, g := range []int{1, 2, 4} {
		for _, poisoning := range []bool{false, true} {
			var a EmitArena
			a.SetGenerations(g)
			poisoned := map[ProcessID]int{} // by the period that cut the gossip, its From
			if poisoning {
				a.SetPoison(func(x *Gossip) {
					if x.From == NilProcess || len(x.Digest) != 2 || x.Digest[1].Seq != uint32(x.From) {
						t.Fatalf("G=%d: a gossip was poisoned after its contents were gone: %+v", g, x)
					}
					poisoned[x.From]++
					x.From = ^ProcessID(0)
				})
			}
			type cut struct {
				g   *Gossip
				ids []EventID
			}
			var cuts []cut
			for period := 1; period <= 3*g; period++ {
				x := a.Gossip()
				x.From = ProcessID(period)
				x.Digest = a.IDs(2)
				x.Digest[1] = EventID{Origin: 1, Seq: uint32(period)}
				x.Subs = a.PIDs(3)
				x.Subs[2] = ProcessID(period)
				cuts = append(cuts, cut{x, x.Digest})
				a.Reset() // the end of the period
				for p, c := range cuts {
					// Cut in period p+1, taken back by the Reset ending period p+g,
					// cut from again after.
					alive, recycled := period-p < g, period-p == g
					switch {
					case alive && (c.g.From != ProcessID(p+1) || c.ids[1].Seq != uint32(p+1) || c.g.Subs[2] != ProcessID(p+1)):
						t.Fatalf("G=%d poisoning=%v: period %d's gossip changed by the end of period %d: %+v", g, poisoning, p+1, period, c.g)
					case recycled && (c.g.From != NilProcess || c.ids[1] != EventID{}):
						t.Fatalf("G=%d poisoning=%v: period %d's gossip was not zeroed by the end of period %d: %+v", g, poisoning, p+1, period, c.g)
					case poisoning && poisoned[ProcessID(p+1)] != map[bool]int{true: 0, false: 1}[alive]:
						t.Fatalf("G=%d: period %d's gossip was poisoned %d times by the end of period %d", g, p+1, poisoned[ProcessID(p+1)], period)
					}
				}
			}
			var one EmitArena
			one.Gossip()
			one.IDs(2)
			one.PIDs(3)
			if a.Size() != g*one.Size() {
				t.Fatalf("G=%d: the arena keeps %d B, want %d: %d B a generation", g, a.Size(), g*one.Size(), one.Size())
			}
		}
	}
}
