// Package event implements the deterministic virtual-time scheduler at the
// heart of the event-driven simulator core: a hierarchical timer wheel in
// the style of event-driven network emulators (trex-emu runs millions of
// simulated clients on one such wheel), specialised for reproducibility.
//
// Virtual time is a uint64 instant (the simulator reads it as milliseconds,
// the wheel does not care). Timers are scheduled at future instants and
// popped instant by instant: Next reports the earliest pending instant,
// PopAt(t) returns every timer due at exactly t as one batch in a canonical
// total order — ascending (Kind, Seq), where Seq is the global schedule
// order. Ties therefore break by (time, priority, seq), a pure function of
// the schedule and never of wheel internals: hierarchical wheels cascade
// timers between levels as time advances, which reorders their internal
// lists, so the batch is explicitly ordered on the way out.
//
// The wheel is allocation-free in steady state: timers live in a pooled
// node arena with an intrusive free list, slot lists are intrusive too, and
// the due batch is a retained scratch slice valid until the next PopAt.
// Occupancy bitmaps make Next O(1) per level in the common case.
//
// The simulator consumes the wheel through sim.Options{Clock: ClockEvent}:
// gossip periods and per-link millisecond delays become scheduled
// instants, and for rounds-granular models the event clock reproduces the
// round clock's results byte-for-byte — a bridge guarantee the golden
// tapes assert end to end (see internal/golden).
package event

import (
	"fmt"
	"math/bits"
	"slices"
)

const (
	slotBits  = 8
	slotCount = 1 << slotBits // 256 slots per level
	numLevels = 3
	slotMask  = slotCount - 1
)

// MaxHorizon bounds how far past Now a timer may be scheduled: level k of
// the wheel spans windows of 256^(k+1) instants, so three levels address
// ~2^24 instants ahead before slot indices would become ambiguous.
const MaxHorizon = 1 << (slotBits * numLevels)

// Timer is one due entry returned by PopAt.
type Timer struct {
	At   uint64 // the instant the timer fired
	Seq  uint64 // global schedule order; ties at (At, Kind) break ascending
	Kind uint8  // caller-defined priority class; lower kinds fire first
	Ref  uint32 // caller-defined payload (e.g. a process index)
}

// node is the arena representation of a pending timer. next chains both
// slot lists and the free list.
type node struct {
	at   uint64
	seq  uint64
	next int32
	ref  uint32
	kind uint8
}

// list is an intrusive singly-linked slot list with O(1) append.
type list struct {
	head, tail int32
}

// level is one ring of the hierarchy: 256 slot lists plus an occupancy
// bitmap for fast scans.
type level struct {
	slots [slotCount]list
	occ   [slotCount / 64]uint64
}

// Wheel is the hierarchical timer wheel. The zero value is not ready; use
// NewWheel.
type Wheel struct {
	now    uint64
	seq    uint64
	count  int
	levels [numLevels]level
	nodes  []node
	free   int32
	due    []Timer // retained PopAt scratch
}

// NewWheel returns an empty wheel at instant 0.
func NewWheel() *Wheel {
	w := &Wheel{free: -1}
	for l := range w.levels {
		for s := range w.levels[l].slots {
			w.levels[l].slots[s] = list{head: -1, tail: -1}
		}
	}
	return w
}

// Now returns the current instant: every timer at instants <= Now has been
// popped.
func (w *Wheel) Now() uint64 { return w.now }

// Schedule adds a timer firing at instant at. at must be strictly in the
// future and within MaxHorizon of Now; violations are scheduler bugs and
// panic. Kind orders same-instant timers (lower first); among equal kinds,
// earlier-scheduled timers fire first.
func (w *Wheel) Schedule(at uint64, kind uint8, ref uint32) {
	if at <= w.now {
		panic(fmt.Sprintf("event: schedule at %d not after now %d", at, w.now))
	}
	w.seq++
	idx := w.alloc()
	n := &w.nodes[idx]
	n.at, n.seq, n.kind, n.ref = at, w.seq, kind, ref
	w.place(idx)
	w.count++
}

// alloc takes a node from the free list, growing the arena only when the
// pool is dry (warmup).
func (w *Wheel) alloc() int32 {
	if w.free >= 0 {
		idx := w.free
		w.free = w.nodes[idx].next
		return idx
	}
	w.nodes = append(w.nodes, node{})
	return int32(len(w.nodes) - 1)
}

// release returns a node to the free list.
func (w *Wheel) release(idx int32) {
	w.nodes[idx].next = w.free
	w.free = idx
}

// place files node idx into the level whose window contains both now and
// the node's deadline: same 256-window as now goes to level 0 (slot =
// at mod 256, popped directly), same 65536-window to level 1, and so on.
// Higher-level entries cascade down as now crosses window boundaries.
func (w *Wheel) place(idx int32) {
	at := w.nodes[idx].at
	switch {
	case at>>slotBits == w.now>>slotBits:
		w.push(0, int(at&slotMask), idx)
	case at>>(2*slotBits) == w.now>>(2*slotBits):
		w.push(1, int((at>>slotBits)&slotMask), idx)
	default:
		if (at>>(2*slotBits))-(w.now>>(2*slotBits)) > slotMask {
			panic(fmt.Sprintf("event: schedule at %d beyond horizon of now %d", at, w.now))
		}
		w.push(2, int((at>>(2*slotBits))&slotMask), idx)
	}
}

// push appends node idx to the given slot list and marks the slot occupied.
func (w *Wheel) push(lv, slot int, idx int32) {
	l := &w.levels[lv]
	w.nodes[idx].next = -1
	if s := &l.slots[slot]; s.head < 0 {
		s.head, s.tail = idx, idx
	} else {
		w.nodes[s.tail].next = idx
		s.tail = idx
	}
	l.occ[slot>>6] |= 1 << (slot & 63)
}

// take empties the given slot, returning its list head.
func (w *Wheel) take(lv, slot int) int32 {
	l := &w.levels[lv]
	head := l.slots[slot].head
	l.slots[slot] = list{head: -1, tail: -1}
	l.occ[slot>>6] &^= 1 << (slot & 63)
	return head
}

// scan returns the first occupied slot index >= from at level lv, or -1.
func (l *level) scan(from int) int {
	if from >= slotCount {
		return -1
	}
	for word := from >> 6; word < len(l.occ); word++ {
		v := l.occ[word]
		if word == from>>6 {
			v &= ^uint64(0) << (from & 63)
		}
		if v != 0 {
			return word<<6 + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// minInSlot walks one slot list for its earliest deadline. Only Next uses
// it, and only for higher levels, whose slots are scanned rarely (once per
// window crossing at most).
func (w *Wheel) minInSlot(lv, slot int) uint64 {
	min := ^uint64(0)
	for idx := w.levels[lv].slots[slot].head; idx >= 0; idx = w.nodes[idx].next {
		if w.nodes[idx].at < min {
			min = w.nodes[idx].at
		}
	}
	return min
}

// Next returns the earliest pending instant and whether one exists. It does
// not advance time.
func (w *Wheel) Next() (uint64, bool) {
	if w.count == 0 {
		return 0, false
	}
	// Level 0 holds exactly the pending timers of the current 256-window,
	// at slot = instant mod 256; all of them are strictly after now.
	if s := w.levels[0].scan(int(w.now&slotMask) + 1); s >= 0 {
		return w.now&^uint64(slotMask) | uint64(s), true
	}
	// Higher levels: the first occupied slot after the current index holds
	// the earliest window; its earliest entry is the answer.
	if s := w.levels[1].scan(int((w.now>>slotBits)&slotMask) + 1); s >= 0 {
		return w.minInSlot(1, s), true
	}
	if s := w.levels[2].scan(int((w.now>>(2*slotBits))&slotMask) + 1); s >= 0 {
		return w.minInSlot(2, s), true
	}
	// The top level wraps: a timer within MaxHorizon of now can land in a
	// slot at or below the current index, one full rotation ahead. Those
	// wrapped slots hold strictly later windows than the unwrapped range
	// scanned above, so checking them second preserves ordering. (Lower
	// levels never wrap — their entries share now's parent window, so their
	// slot indices are strictly above the current index.)
	if s := w.levels[2].scan(0); s >= 0 {
		return w.minInSlot(2, s), true
	}
	panic("event: pending timers but no occupied slot")
}

// cascade re-places every entry of the given slot relative to the current
// now. Entries already due would have been missed by the caller's
// Next/PopAt discipline; that is a scheduler bug and panics.
func (w *Wheel) cascade(lv, slot int) {
	idx := w.take(lv, slot)
	for idx >= 0 {
		next := w.nodes[idx].next
		if w.nodes[idx].at < w.now {
			panic(fmt.Sprintf("event: timer at %d skipped (now %d)", w.nodes[idx].at, w.now))
		}
		w.place(idx)
		idx = next
	}
}

// PopAt advances the wheel to instant t and returns every timer due at
// exactly t, ordered by (Kind, Seq). Callers must pop pending instants in
// order — t comes from Next — so no pending timer can predate t. The
// returned slice is a retained scratch, valid until the next PopAt.
func (w *Wheel) PopAt(t uint64) []Timer {
	if t <= w.now {
		panic(fmt.Sprintf("event: pop at %d not after now %d", t, w.now))
	}
	old := w.now
	w.now = t
	// Crossing window boundaries cascades the newly current higher-level
	// slots down. A jump past a full rotation would revisit slots; every
	// slot has been cascaded by then, so the loops cap at one rotation.
	if t>>(2*slotBits) != old>>(2*slotBits) {
		for b := old>>(2*slotBits) + 1; b <= t>>(2*slotBits); b++ {
			w.cascade(2, int(b&slotMask))
			if b-old>>(2*slotBits) >= slotCount {
				break
			}
		}
	}
	if t>>slotBits != old>>slotBits {
		for b := old>>slotBits + 1; b <= t>>slotBits; b++ {
			w.cascade(1, int(b&slotMask))
			if b-old>>slotBits >= slotCount {
				break
			}
		}
	}
	w.due = w.due[:0]
	idx := w.take(0, int(t&slotMask))
	for idx >= 0 {
		n := &w.nodes[idx]
		if n.at != t {
			panic(fmt.Sprintf("event: timer at %d in slot of %d", n.at, t))
		}
		w.due = append(w.due, Timer{At: n.at, Seq: n.seq, Kind: n.kind, Ref: n.ref})
		next := n.next
		w.release(idx)
		idx = next
	}
	w.count -= len(w.due)
	// Cascading interleaves slot lists, so insertion order within the batch
	// is wheel-internal; the canonical (Kind, Seq) order is restored here.
	// Seq never repeats, so the order is total.
	slices.SortFunc(w.due, func(a, b Timer) int {
		if a.Kind != b.Kind {
			return int(a.Kind) - int(b.Kind)
		}
		if a.Seq < b.Seq {
			return -1
		}
		return 1
	})
	return w.due
}
