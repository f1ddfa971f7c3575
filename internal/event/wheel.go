// Package event implements the deterministic virtual-time scheduler of the
// event clock: a binary min-heap of timers, specialised for reproducibility.
//
// Virtual time is a uint64 instant (the simulator reads it as milliseconds,
// the scheduler does not care). Timers are scheduled at future instants and
// popped instant by instant: Next reports the earliest pending instant,
// PopAt(t) returns every timer due at exactly t as one batch in a canonical
// total order — ascending (Kind, Seq), where Seq is the global schedule
// order. Ties therefore break by (time, priority, seq), a pure function of
// the schedule: the heap is ordered by that key, so a due batch leaves it
// already in canonical order.
//
// The scheduler is allocation-free in steady state: the heap and the due
// batch are retained slices, the batch valid until the next PopAt.
//
// Its production user is the simulator's in-flight ring
// (internal/netmodel), which keeps one arrival marker per pending instant —
// a few hundred at most on a WAN-delayed cluster — and asks Next which
// instant comes first. Gossip periods are not timers: a process's tick is a
// position in the period, not a scheduled instant.
package event

import "fmt"

// horizon bounds how far past Now a timer may be scheduled.
const horizon = 1 << 24

// Timer is one due entry returned by PopAt.
type Timer struct {
	At   uint64 // the instant the timer fired
	Seq  uint64 // global schedule order; ties at (At, Kind) break ascending
	Kind uint8  // caller-defined priority class; lower kinds fire first
	Ref  uint32 // caller-defined payload (e.g. a process index)
}

// before is the heap order: (At, Kind, Seq) ascending. Seq never repeats,
// so the order is total.
func (a *Timer) before(b *Timer) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Seq < b.Seq
}

// Wheel is the timer scheduler, a binary min-heap of pending timers. The
// zero value is an empty scheduler at instant 0, as NewWheel returns.
type Wheel struct {
	now  uint64
	seq  uint64
	heap []Timer // pending timers, heap-ordered by before
	due  []Timer // retained PopAt scratch
}

// NewWheel returns an empty scheduler at instant 0.
func NewWheel() *Wheel { return &Wheel{} }

// Now returns the current instant: every timer at instants <= Now has been
// popped.
func (w *Wheel) Now() uint64 { return w.now }

// Schedule adds a timer firing at instant at. at must be strictly in the
// future and within the horizon (2^24 instants) of Now; violations are
// scheduler bugs and panic. Kind orders same-instant timers (lower first);
// among equal kinds, earlier-scheduled timers fire first.
func (w *Wheel) Schedule(at uint64, kind uint8, ref uint32) {
	if at <= w.now {
		panic(fmt.Sprintf("event: schedule at %d not after now %d", at, w.now))
	}
	if at-w.now >= horizon {
		panic(fmt.Sprintf("event: schedule at %d beyond horizon of now %d", at, w.now))
	}
	w.seq++
	w.heap = append(w.heap, Timer{At: at, Seq: w.seq, Kind: kind, Ref: ref})
	h := w.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// Next returns the earliest pending instant and whether one exists. It does
// not advance time.
func (w *Wheel) Next() (uint64, bool) {
	if len(w.heap) == 0 {
		return 0, false
	}
	return w.heap[0].At, true
}

// PopAt advances the scheduler to instant t and returns every timer due at
// exactly t, ordered by (Kind, Seq). Callers must pop pending instants in
// order — t comes from Next — so no pending timer can predate t. The
// returned slice is a retained scratch, valid until the next PopAt.
func (w *Wheel) PopAt(t uint64) []Timer {
	if t <= w.now {
		panic(fmt.Sprintf("event: pop at %d not after now %d", t, w.now))
	}
	w.now = t
	w.due = w.due[:0]
	for len(w.heap) > 0 && w.heap[0].At <= t {
		if w.heap[0].At < t {
			panic(fmt.Sprintf("event: timer at %d skipped (now %d)", w.heap[0].At, t))
		}
		w.due = append(w.due, w.heap[0])
		w.popMin()
	}
	return w.due
}

// popMin removes the heap's root: the last timer takes its place and sifts
// down.
func (w *Wheel) popMin() {
	last := len(w.heap) - 1
	w.heap[0] = w.heap[last]
	w.heap = w.heap[:last]
	h := w.heap
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
