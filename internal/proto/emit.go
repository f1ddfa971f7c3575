package proto

import "repro/internal/pool"

// EmitArena is the storage a period's emissions are cut from: the Gossip
// headers and the runs of events, ids, process ids and unsubscriptions they
// carry, each run at its exact length. A gossip is dead once every message
// that carries it has been handled (Fig. 1(b): gossip, then empty events).
// Without network delay that is the end of the period that emitted it; a
// delayed message can still be in the air G-1 periods later, so the arena
// keeps G generations (SetGenerations), one per period an emission can be
// in flight, and nothing copies what is parked. A driver serves all its
// engines from one arena and calls Reset at the end of every period: the
// generation cut from G periods ago, whose every message has been handled,
// is taken back and cut from again. The arena then keeps what its G busiest
// periods needed rather than every engine keeping its own largest emission.
// The zero value is ready to use and keeps one generation; an EmitArena is
// not safe for concurrent use.
type EmitArena struct {
	emitGen // the current period's generation, held by value for the Cut paths
	side    *emitSide
}

// emitGen is the storage one period's emissions are cut from.
type emitGen struct {
	gossips pool.Bump[Gossip]
	events  pool.Bump[Event]
	ids     pool.Bump[EventID]
	pids    pool.Bump[ProcessID]
	unsubs  pool.Bump[Unsubscription]
}

// emitSide is what an arena of more than one generation, or one that
// poisons what it takes back, keeps besides the current generation.
type emitSide struct {
	older  []olderGen // the G-1 generations before the current one, oldest at next
	next   int
	cut    []*Gossip // the current generation's gossips, kept only to poison them
	poison func(*Gossip)
}

// olderGen is a generation the arena no longer cuts from, with the gossips
// cut from it while it was current.
type olderGen struct {
	emitGen
	cut []*Gossip
}

// SetGenerations makes the arena keep g >= 1 generations: a run cut in
// one period stays intact through the next g-1 Resets and is taken back by
// the g-th. It must be called before the first run is cut.
func (a *EmitArena) SetGenerations(g int) {
	if g <= 1 && a.side == nil {
		return
	}
	if a.side == nil {
		a.side = new(emitSide)
	}
	a.side.older, a.side.next = make([]olderGen, max(g-1, 0)), 0
}

// SetPoison makes the arena pass every gossip header cut from now on to
// poison when it takes it back, before zeroing it: a debug mode that
// overwrites what a late reader would see with sentinels.
func (a *EmitArena) SetPoison(poison func(*Gossip)) {
	if a.side == nil {
		a.side = new(emitSide)
	}
	a.side.poison = poison
}

// Gossip returns a zeroed gossip header.
func (a *EmitArena) Gossip() *Gossip {
	g := &a.gossips.Cut(1)[0]
	if s := a.side; s != nil && s.poison != nil {
		s.cut = append(s.cut, g)
	}
	return g
}

// Events returns n zeroed events with no capacity beyond them.
func (a *EmitArena) Events(n int) []Event { return a.events.Cut(n) }

// IDs returns n zeroed event ids with no capacity beyond them.
func (a *EmitArena) IDs(n int) []EventID { return a.ids.Cut(n) }

// PIDs returns n zeroed process ids with no capacity beyond them.
func (a *EmitArena) PIDs(n int) []ProcessID { return a.pids.Cut(n) }

// Unsubs returns n zeroed unsubscriptions with no capacity beyond them.
func (a *EmitArena) Unsubs(n int) []Unsubscription { return a.unsubs.Cut(n) }

// Reset ends a period: the oldest generation becomes the current one, and
// everything it handed out is taken back and zeroed (poisoned first under
// SetPoison), so a kept arena references no payload of a period it no
// longer holds. With one generation that is everything the arena handed
// out.
func (a *EmitArena) Reset() {
	if s := a.side; s != nil {
		if len(s.older) > 0 {
			o := &s.older[s.next]
			a.emitGen, o.emitGen = o.emitGen, a.emitGen
			s.cut, o.cut = o.cut, s.cut
			s.next = (s.next + 1) % len(s.older)
		}
		for _, g := range s.cut {
			s.poison(g)
		}
		clear(s.cut)
		s.cut = s.cut[:0]
	}
	a.gossips.Reset()
	a.events.Reset()
	a.ids.Reset()
	a.pids.Reset()
	a.unsubs.Reset()
}

func (g *emitGen) size() int {
	return g.gossips.Size() + g.events.Size() + g.ids.Size() + g.pids.Size() + g.unsubs.Size()
}

// Size is the number of bytes of storage the arena keeps, every
// generation's.
func (a *EmitArena) Size() int {
	n := a.emitGen.size()
	if a.side != nil {
		for i := range a.side.older {
			n += a.side.older[i].size()
		}
	}
	return n
}

// Emitter is where one engine's emissions are cut from. Bound to a driver's
// arena (Bind), it cuts from that and never resets it: the driver does, once
// every emission cut from it is consumed. Unbound, it keeps a private arena,
// which Tick resets under reuse — the caller then consumes every emission
// before its next tick, as a live node's transport does — and replaces
// otherwise, so each emission stays valid for as long as anything holds it.
// The zero value is unbound and does not reuse.
type Emitter struct {
	arena  *EmitArena
	shared bool
	reuse  bool
}

// Bind makes the emitter cut from a, which its driver resets; nil unbinds it.
func (e *Emitter) Bind(a *EmitArena) { e.arena, e.shared = a, a != nil }

// SetReuse sets whether an unbound emitter resets its private arena at each
// tick (on) or starts a fresh one (off).
func (e *Emitter) SetReuse(on bool) { e.reuse = on }

// Tick returns the arena one tick's emission is cut from.
func (e *Emitter) Tick() *EmitArena {
	switch {
	case e.shared:
	case e.reuse && e.arena != nil:
		e.arena.Reset()
	default:
		e.arena = new(EmitArena)
	}
	return e.arena
}
