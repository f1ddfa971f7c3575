package buffer

import (
	"encoding/binary"
	"unsafe"

	"repro/internal/pool"
	"repro/internal/proto"
	"repro/internal/rng"
)

// Static key functions shared by every buffer instance (a capture-free
// func literal would also be static, but naming them makes that explicit).
func unsubKey(u proto.Unsubscription) proto.ProcessID { return u.Process }
func eventKey(e proto.Event) proto.EventID            { return e.ID }
func idKey(id proto.EventID) proto.EventID            { return id }

// PIDFilter is a 256-bit, one-hash presence filter over process ids, small
// enough to be built on the caller's stack once per received gossip: Has
// never misses an id that was added and rules out most that were not, which
// spares an absent id — nearly every id, in a system much larger than a
// view — the scan that would only confirm it.
type PIDFilter [4]uint64

func (f *PIDFilter) bit(p proto.ProcessID) (word uint64, mask uint64) {
	h := uint64(p) * 0x9e3779b97f4a7c15 >> 56
	return h >> 6, 1 << (h & 63)
}

// Add records p.
func (f *PIDFilter) Add(p proto.ProcessID) { w, m := f.bit(p); f[w] |= m }

// Has reports whether p may have been added.
func (f *PIDFilter) Has(p proto.ProcessID) bool { w, m := f.bit(p); return f[w]&m != 0 }

// PIDList is a bounded, duplicate-free list of process identifiers — the
// representation of the subs buffer. Unlike the generic KeyedList it is
// backed by a plain slice with linear membership scans: a subs buffer
// holds at most |subs|m plus one gossip's inflow (a few dozen entries),
// where a scan over packed uint64s outruns a hash map — and, decisively
// for the zero-alloc hot path, a slice at its high-water capacity never
// reallocates, while map metadata keeps growing under delete/insert churn.
type PIDList struct {
	items []proto.ProcessID
}

// NewPIDList creates an empty PIDList.
func NewPIDList() *PIDList { return &PIDList{} }

// indexOf returns p's position, or -1.
func (l *PIDList) indexOf(p proto.ProcessID) int {
	for i, q := range l.items {
		if q == p {
			return i
		}
	}
	return -1
}

// Add appends p unless present, reporting whether it was added.
func (l *PIDList) Add(p proto.ProcessID) bool {
	if l.indexOf(p) >= 0 {
		return false
	}
	l.items = append(l.items, p)
	return true
}

// Filter returns a filter holding every buffered identifier.
func (l *PIDList) Filter() (f PIDFilter) {
	for _, p := range l.items {
		f.Add(p)
	}
	return f
}

// AddIn is Add for a caller holding f, a filter of the list's content kept
// up to date here: an identifier the filter rules out is appended unscanned.
func (l *PIDList) AddIn(p proto.ProcessID, f *PIDFilter) {
	if !f.Has(p) || l.indexOf(p) < 0 {
		l.items = append(l.items, p)
		f.Add(p)
	}
}

// Contains reports whether p is buffered.
func (l *PIDList) Contains(p proto.ProcessID) bool { return l.indexOf(p) >= 0 }

// Remove deletes p, preserving the order of the rest. It reports whether
// an element was removed.
func (l *PIDList) Remove(p proto.ProcessID) bool {
	i := l.indexOf(p)
	if i < 0 {
		return false
	}
	l.RemoveAt(i)
	return true
}

// RemoveAt deletes the i-th identifier, preserving the order of the rest.
func (l *PIDList) RemoveAt(i int) { l.items = append(l.items[:i], l.items[i+1:]...) }

// Len returns the number of buffered identifiers.
func (l *PIDList) Len() int { return len(l.items) }

// At returns the i-th identifier in insertion order.
func (l *PIDList) At(i int) proto.ProcessID { return l.items[i] }

// Items returns a copy of the identifiers in insertion order.
func (l *PIDList) Items() []proto.ProcessID {
	if len(l.items) == 0 {
		return nil
	}
	return append([]proto.ProcessID(nil), l.items...)
}

// AppendItems appends the identifiers in insertion order to dst.
func (l *PIDList) AppendItems(dst []proto.ProcessID) []proto.ProcessID {
	return append(dst, l.items...)
}

// Grow pre-allocates capacity for n identifiers. Of the protocol's lists
// only subs (and the view beside it) is sized at construction: it is full
// from the first round and every reception appends to it; the others start
// empty and grow on demand toward a bound they may never come near.
func (l *PIDList) Grow(n int) { l.GrowIn(n, nil) }

// GrowIn is Grow with the backing array drawn from a size-classed arena (a
// nil a falls back to the heap), so pre-sizing thousands of per-process
// buffers costs amortized chunk allocations instead of one each.
func (l *PIDList) GrowIn(n int, a *pool.Arena[proto.ProcessID]) {
	if cap(l.items) >= n {
		return
	}
	var items []proto.ProcessID
	if a != nil {
		items = a.Make(n)[:len(l.items)]
	} else {
		items = make([]proto.ProcessID, len(l.items), n)
	}
	copy(items, l.items)
	l.items = items
}

// batchMax is the list length up to which TruncateRandomDiscard tracks the
// survivors' positions in one byte each on the stack.
const batchMax = 64

// identity[i] == i: the survivors' positions before any draw.
var identity = func() (a [batchMax]byte) {
	for i := range a {
		a[i] = byte(i)
	}
	return a
}()

// TruncateRandomDiscard removes uniformly chosen identifiers until
// Len() <= max ("remove random element from subs"), returning the count.
//
// The k draws of that loop are Intn(len), Intn(len-1), …: they depend on the
// list's length, never on its contents, so all of them are taken before an
// identifier moves (draws before moves, docs/ARCHITECTURE.md). What they
// delete from is a list of the survivors' original positions, and every
// deletion is the same 64-byte shift wherever it strikes — a draw feeds
// addresses, never a branch or a copy's size. One gather then moves each
// survivor once. A single eviction, and a list past batchMax, keep one
// order-preserving delete per draw; the two forms differ in cost only.
func (l *PIDList) TruncateRandomDiscard(max int, r *rng.Source) int {
	if max < 0 {
		max = 0
	}
	n := len(l.items)
	k := n - max
	if k < 2 || n > batchMax {
		for len(l.items) > max {
			l.RemoveAt(r.Intn(len(l.items)))
		}
		return n - len(l.items)
	}
	// pos[w] is the original position of the w-th survivor. The upper half
	// is never read as a position: it is what a shift at the last position
	// pulls in.
	var pos [2 * batchMax]byte
	copy(pos[:], identity[:])
	le := binary.LittleEndian
	for j := 0; j < k; j++ {
		i := r.Intn(n-j) & (batchMax - 1) // the mask changes nothing; it bounds i for the compiler
		src, dst := pos[i+1:i+1+batchMax], pos[i:i+batchMax]
		a, b, c, d := le.Uint64(src[0:]), le.Uint64(src[8:]), le.Uint64(src[16:]), le.Uint64(src[24:])
		e, f, g, h := le.Uint64(src[32:]), le.Uint64(src[40:]), le.Uint64(src[48:]), le.Uint64(src[56:])
		le.PutUint64(dst[0:], a)
		le.PutUint64(dst[8:], b)
		le.PutUint64(dst[16:], c)
		le.PutUint64(dst[24:], d)
		le.PutUint64(dst[32:], e)
		le.PutUint64(dst[40:], f)
		le.PutUint64(dst[48:], g)
		le.PutUint64(dst[56:], h)
	}
	// pos ascends and pos[w] >= w, so a slot is read before it is written.
	items := l.items
	for w := range items[:max] {
		items[w] = items[pos[w]]
	}
	l.items = items[:max]
	return k
}

// UnsubList is a bounded, duplicate-free list of unsubscriptions keyed by
// process — the representation of the unSubs buffer. Re-adding an
// unsubscription for a process already present keeps the newer stamp, so a
// re-issued unsubscription refreshes its TTL.
type UnsubList struct {
	inner KeyedList[proto.ProcessID, proto.Unsubscription]
}

// NewUnsubList creates an empty UnsubList.
func NewUnsubList() *UnsubList {
	l := &UnsubList{}
	l.Init()
	return l
}

// Init prepares a zero-value UnsubList in place, allocation-free.
func (l *UnsubList) Init() { l.inner.Init(unsubKey) }

// Add inserts u, or refreshes the stamp of an existing entry if u is newer.
// It reports whether the set of processes changed.
func (l *UnsubList) Add(u proto.Unsubscription) bool {
	if cur, ok := l.inner.Get(u.Process); ok {
		if u.Stamp > cur.Stamp {
			l.inner.Remove(u.Process)
			l.inner.Add(u)
		}
		return false
	}
	return l.inner.Add(u)
}

// Contains reports whether an unsubscription for p is buffered.
func (l *UnsubList) Contains(p proto.ProcessID) bool { return l.inner.Contains(p) }

// Len returns the number of buffered unsubscriptions.
func (l *UnsubList) Len() int { return l.inner.Len() }

// Items returns a copy of the unsubscriptions in insertion order.
func (l *UnsubList) Items() []proto.Unsubscription { return l.inner.Items() }

// AppendItems appends the unsubscriptions in insertion order to dst.
func (l *UnsubList) AppendItems(dst []proto.Unsubscription) []proto.Unsubscription {
	return l.inner.AppendItems(dst)
}

// AppendFresh appends the unsubscriptions that Expire(now, ttl) would keep,
// in insertion order, without removing anything: the read-only sibling of
// Expire-then-AppendItems for speculative emission paths that must be able
// to roll back. The skip predicate matches Expire exactly, so AppendFresh
// followed by Expire produces the same gossip content and final buffer as
// the destructive order.
func (l *UnsubList) AppendFresh(dst []proto.Unsubscription, now, ttl uint64) []proto.Unsubscription {
	if now < ttl {
		return l.inner.AppendItems(dst)
	}
	for i, ln := 0, l.inner.Len(); i < ln; i++ {
		u := l.inner.At(i)
		if u.Stamp < now-ttl {
			continue
		}
		dst = append(dst, u)
	}
	return dst
}

// TruncateRandomDiscard removes random entries until Len() <= max,
// returning only the count.
func (l *UnsubList) TruncateRandomDiscard(max int, r *rng.Source) int {
	return l.inner.TruncateRandomDiscard(max, r)
}

// Expire drops every unsubscription whose stamp is older than now-ttl
// (§3.4: "After a certain time, the unsubscription becomes obsolete").
// It returns the number of entries dropped.
func (l *UnsubList) Expire(now, ttl uint64) int {
	dropped := 0
	if now < ttl {
		return 0
	}
	// Backwards so removals cannot skip entries; no snapshot allocation on
	// the per-tick emission path.
	for i := l.inner.Len() - 1; i >= 0; i-- {
		u := l.inner.At(i)
		if u.Stamp < now-ttl {
			l.inner.Remove(u.Process)
			dropped++
		}
	}
	return dropped
}

// Remove deletes the unsubscription for p, if any.
func (l *UnsubList) Remove(p proto.ProcessID) bool { return l.inner.Remove(p) }

// EventBuffer is the bounded events buffer: notifications received for the
// first time since the last outgoing gossip, truncated randomly.
type EventBuffer struct {
	inner KeyedList[proto.EventID, proto.Event]
}

// NewEventBuffer creates an empty EventBuffer.
func NewEventBuffer() *EventBuffer {
	b := &EventBuffer{}
	b.Init()
	return b
}

// Init prepares a zero-value EventBuffer in place, allocation-free.
func (b *EventBuffer) Init() { b.inner.Init(eventKey) }

// Add inserts e unless already present, reporting whether it was added.
func (b *EventBuffer) Add(e proto.Event) bool { return b.inner.Add(e) }

// AddBounded is Add for a caller that truncates to under bound before it
// adds again (KeyedList.AddBounded): storage stops growing at bound slots.
func (b *EventBuffer) AddBounded(e proto.Event, bound int) bool {
	return b.inner.AddBounded(e, bound)
}

// Contains reports whether the buffer holds an event with the given id.
func (b *EventBuffer) Contains(id proto.EventID) bool { return b.inner.Contains(id) }

// Len returns the number of buffered events.
func (b *EventBuffer) Len() int { return b.inner.Len() }

// At returns the i-th buffered event in insertion order.
func (b *EventBuffer) At(i int) proto.Event { return b.inner.At(i) }

// Items returns a copy of the buffered events in insertion order.
func (b *EventBuffer) Items() []proto.Event { return b.inner.Items() }

// AppendItems appends the buffered events in insertion order to dst.
func (b *EventBuffer) AppendItems(dst []proto.Event) []proto.Event {
	return b.inner.AppendItems(dst)
}

// TruncateRandomDiscard removes random events until Len() <= max,
// returning only the count.
func (b *EventBuffer) TruncateRandomDiscard(max int, r *rng.Source) int {
	return b.inner.TruncateRandomDiscard(max, r)
}

// Remove deletes the event with the given id, reporting whether it was
// present (used by weighted eviction policies).
func (b *EventBuffer) Remove(id proto.EventID) bool { return b.inner.Remove(id) }

// Clear empties the buffer ("events ← ∅" after each gossip emission).
func (b *EventBuffer) Clear() { b.inner.Clear() }

// IDBuffer is the flat representation of eventIds: an insertion-ordered,
// duplicate-free list of notification identifiers bounded by |eventIds|m
// with oldest-first eviction. This is exactly the structure whose maximum
// size drives the reliability measurements of Fig. 6(b).
type IDBuffer struct {
	inner FIFO[proto.EventID]
}

// NewIDBuffer creates an empty IDBuffer.
func NewIDBuffer() *IDBuffer {
	b := &IDBuffer{}
	b.Init()
	return b
}

// Init prepares a zero-value IDBuffer in place, allocation-free.
func (b *IDBuffer) Init() { b.inner.Init(idKey) }

// Add inserts id unless present, reporting whether it was added.
func (b *IDBuffer) Add(id proto.EventID) bool { return b.inner.Add(id) }

// AddBounded is Add for a caller that truncates to under bound before it
// adds again (FIFO.AddBounded): the ring stops growing at bound slots.
func (b *IDBuffer) AddBounded(id proto.EventID, bound int) bool {
	return b.inner.AddBounded(id, bound)
}

// Contains reports whether id is buffered.
func (b *IDBuffer) Contains(id proto.EventID) bool { return b.inner.Contains(id) }

// Len returns the number of buffered identifiers.
func (b *IDBuffer) Len() int { return b.inner.Len() }

// AppendIDs appends the identifiers, oldest first, to dst.
func (b *IDBuffer) AppendIDs(dst []proto.EventID) []proto.EventID {
	return b.inner.AppendItems(dst)
}

// TruncateOldestDiscard evicts oldest identifiers until Len() <= max
// ("remove oldest element from eventIds"), returning only the count — the
// allocation-free path record() runs on every delivery.
func (b *IDBuffer) TruncateOldestDiscard(max int) int { return b.inner.TruncateOldest(max) }

// Grow pre-allocates capacity for n identifiers.
func (b *IDBuffer) Grow(n int) { b.inner.Grow(n) }

// Archive is the bounded store of older notifications kept "only ... to
// satisfy retransmission requests" (§3.2). Eviction is oldest-first.
//
// A notification is archived as what a pull looks it up by, its identifier,
// in the ring of a FIFO of ids; its payload, if it has one, sits in a side
// ring at the same position. The side ring is nil until the first non-empty
// payload arrives, so an archive of payload-less notifications — every one
// the simulator makes — holds 16 bytes an entry, not the 40 of an id beside
// a slice header; one that carries payloads holds 32.
type Archive struct {
	ids FIFO[proto.EventID]
	pay []payloadRef // pay[p] is the payload of ids.ring[p]; nil, or len(ids.ring)
	max int
}

// payloadRef is a retained payload in 16 bytes where a slice header takes
// 24: its first byte, which keeps the whole array alive, and its length. A
// payload is read and forwarded, never appended to, so its capacity is not
// kept. The zero payloadRef is no payload.
type payloadRef struct {
	first *byte
	n     int
}

func (r payloadRef) bytes() []byte { return unsafe.Slice(r.first, r.n) } // nil for the zero payloadRef

// NewArchive creates an archive bounded at max events; max <= 0 disables
// archiving entirely (Lookup always misses).
func NewArchive(max int) *Archive {
	a := &Archive{}
	a.Init(max)
	return a
}

// Init prepares a zero-value Archive in place, allocation-free.
func (a *Archive) Init(max int) {
	a.ids.Init(idKey)
	a.max = max
}

// Store retains e for future retransmission, evicting oldest entries to
// respect the bound. The payload is retained, not copied.
func (a *Archive) Store(e proto.Event) {
	if a.max <= 0 {
		return
	}
	if !a.ids.AddBounded(e.ID, a.max+1) { // one past the bound until the truncation below
		return
	}
	if a.pay != nil && len(a.pay) != len(a.ids.ring) {
		// The ring grows only before its first eviction, so entry i is at
		// position i before and after: the side ring grows alike.
		pay := make([]payloadRef, len(a.ids.ring))
		copy(pay, a.pay)
		a.pay = pay
	}
	if len(e.Payload) > 0 {
		if a.pay == nil {
			a.pay = make([]payloadRef, len(a.ids.ring))
		}
		a.pay[a.ids.pos(a.ids.n-1)] = payloadRef{&e.Payload[0], len(e.Payload)}
	}
	if a.ids.Len() > a.max {
		if a.pay != nil {
			a.pay[a.ids.head] = payloadRef{} // the evicted payload is garbage from here on
		}
		a.ids.TruncateOldest(a.max)
	}
}

// Lookup returns the archived event with the given id. Its payload is the
// bytes Store retained, nil for an empty one.
func (a *Archive) Lookup(id proto.EventID) (proto.Event, bool) {
	p, _ := a.ids.find(id, hashID(id))
	if p < 0 {
		return proto.Event{}, false
	}
	return a.event(id, p), true
}

// event returns the archived event id, held at ring position p.
func (a *Archive) event(id proto.EventID, p int) proto.Event {
	if a.pay == nil {
		return proto.Event{ID: id}
	}
	return proto.Event{ID: id, Payload: a.pay[p].bytes()}
}

// Serve answers a retransmission request: the archived event of every id of
// req the archive holds, in the order req first names them and once each
// however often it repeats them, with the number of ids it does not hold.
// One bit per ring position marks what is served already, so the work is
// linear in req. reply is nil when nothing is held.
func (a *Archive) Serve(req []proto.EventID) (reply []proto.Event, misses int) {
	var small [4]uint64 // the default archive's 201 positions
	served := small[:]
	if words := (len(a.ids.ring) + 63) / 64; words > len(small) {
		served = make([]uint64, words)
	}
	for i, id := range req {
		p, _ := a.ids.find(id, hashID(id))
		if p < 0 {
			misses++
			continue
		}
		if w, bit := p/64, uint64(1)<<(p%64); served[w]&bit == 0 {
			served[w] |= bit
			if reply == nil {
				reply = make([]proto.Event, 0, min(len(req)-i, a.Len()))
			}
			reply = append(reply, a.event(id, p))
		}
	}
	return reply, misses
}

// Len returns the number of archived events.
func (a *Archive) Len() int { return a.ids.Len() }
