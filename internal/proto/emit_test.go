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
