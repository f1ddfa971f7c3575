package proto

import "repro/internal/pool"

// EmitArena is the storage a period's emissions are cut from: the Gossip
// headers and the runs of events, ids, process ids and unsubscriptions they
// carry, each run at its exact length. A gossip is dead once the period that
// emitted it has been handled (Fig. 1(b): gossip, then empty events), so a
// driver that consumes every emission of a period before the next one — or
// deep-copies what it keeps, as the in-flight ring does — serves all its
// engines from one arena and takes everything back with Reset at the end of
// the period. The arena then keeps what its busiest period needed rather
// than every engine keeping its own largest emission. The zero value is
// ready to use; an EmitArena is not safe for concurrent use.
type EmitArena struct {
	gossips pool.Bump[Gossip]
	events  pool.Bump[Event]
	ids     pool.Bump[EventID]
	pids    pool.Bump[ProcessID]
	unsubs  pool.Bump[Unsubscription]
}

// Gossip returns a zeroed gossip header.
func (a *EmitArena) Gossip() *Gossip { return &a.gossips.Cut(1)[0] }

// Events returns n zeroed events with no capacity beyond them.
func (a *EmitArena) Events(n int) []Event { return a.events.Cut(n) }

// IDs returns n zeroed event ids with no capacity beyond them.
func (a *EmitArena) IDs(n int) []EventID { return a.ids.Cut(n) }

// PIDs returns n zeroed process ids with no capacity beyond them.
func (a *EmitArena) PIDs(n int) []ProcessID { return a.pids.Cut(n) }

// Unsubs returns n zeroed unsubscriptions with no capacity beyond them.
func (a *EmitArena) Unsubs(n int) []Unsubscription { return a.unsubs.Cut(n) }

// Reset takes back everything the arena handed out and zeroes what it keeps,
// so a kept arena references no payload of the period it last held.
func (a *EmitArena) Reset() {
	a.gossips.Reset()
	a.events.Reset()
	a.ids.Reset()
	a.pids.Reset()
	a.unsubs.Reset()
}

// Size is the number of bytes of storage the arena keeps.
func (a *EmitArena) Size() int {
	return a.gossips.Size() + a.events.Size() + a.ids.Size() + a.pids.Size() + a.unsubs.Size()
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
