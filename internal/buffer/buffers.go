package buffer

import (
	"encoding/binary"
	"slices"
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

// PIDList is a bounded, duplicate-free list of process identifiers — the
// representation of the subs buffer: a plain slice, which at its high-water
// capacity never reallocates under the per-message add/evict churn. It keeps
// no index of its own. Its owner, membership.Manager, answers "is p
// buffered?" from the index it builds of view and subs for each received
// gossip, and appends only what that index rules out (PushUnless).
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

// PushUnless appends p unless held, the caller's exact answer to whether the
// list holds it, without a branch on held: the answers for a gossip's
// evictees follow no pattern a branch predictor could learn.
func (l *PIDList) PushUnless(p proto.ProcessID, held bool) {
	n := len(l.items) + 1
	if held {
		n-- // a conditional move
	}
	l.items = append(l.items, p)[:n]
}

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

// Init prepares a zero-value UnsubList in place, allocation-free.
func (l *UnsubList) Init() { l.inner.Init(unsubKey) }

// Add inserts u, or replaces an older held unsubscription of its process,
// moving to the end. It reports whether the set of processes changed. Its
// one scan compares processes directly.
func (l *UnsubList) Add(u proto.Unsubscription) bool {
	in := &l.inner
	for i, held := range in.items {
		if held.Process == u.Process {
			if u.Stamp > held.Stamp {
				copy(in.items[i:], in.items[i+1:])
				in.items[len(in.items)-1] = u
			}
			return false
		}
	}
	in.push(u.Process, u, 0)
	return true
}

// AddAll adds the unsubscriptions of us that keep accepts (it sees each
// once, in order) as Add would one at a time; past smallMax entries in time
// linear in the list and us (KeyedList.merge).
func (l *UnsubList) AddAll(us []proto.Unsubscription, keep func(proto.Unsubscription) bool) {
	if l.Len()+len(us) > smallMax {
		l.inner.merge(us, keep, func(held, u proto.Unsubscription) bool { return u.Stamp > held.Stamp })
		return
	}
	for _, u := range us {
		if keep(u) {
			l.Add(u)
		}
	}
}

// Len returns the number of buffered unsubscriptions.
func (l *UnsubList) Len() int { return l.inner.Len() }

// AppendItems appends the unsubscriptions in insertion order to dst.
func (l *UnsubList) AppendItems(dst []proto.Unsubscription) []proto.Unsubscription {
	return l.inner.AppendItems(dst)
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

// EventBuffer is the bounded events buffer: notifications received for the
// first time since the last outgoing gossip, truncated randomly.
type EventBuffer struct {
	inner KeyedList[proto.EventID, proto.Event]
}

// Init prepares a zero-value EventBuffer in place, allocation-free.
func (b *EventBuffer) Init() { b.inner.Init(eventKey) }

// AddBounded inserts e unless already present, reporting whether it was
// added, for a caller that truncates to under bound before it adds again
// (KeyedList.AddBounded): storage stops growing at bound slots.
func (b *EventBuffer) AddBounded(e proto.Event, bound int) bool {
	return b.inner.AddBounded(e, bound)
}

// Contains reports whether the buffer holds an event with the given id.
func (b *EventBuffer) Contains(id proto.EventID) bool { return b.inner.Contains(id) }

// Len returns the number of buffered events.
func (b *EventBuffer) Len() int { return b.inner.Len() }

// At returns the i-th buffered event in insertion order.
func (b *EventBuffer) At(i int) proto.Event { return b.inner.At(i) }

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

// IDBuffer is a standalone eventIds window: an insertion-ordered,
// duplicate-free list of notification identifiers bounded by |eventIds|m
// with oldest-first eviction, indexed past a few entries. The engine does
// not use it — its window is the newest |eventIds|m entries of the Archive's
// ring — and it remains for the benchmark probes that time the keyed FIFO.
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

// Contains reports whether id is buffered.
func (b *IDBuffer) Contains(id proto.EventID) bool { return b.inner.Contains(id) }

// TruncateOldestDiscard evicts oldest identifiers until Len() <= max
// ("remove oldest element from eventIds"), returning only the count, so
// it allocates nothing.
func (b *IDBuffer) TruncateOldestDiscard(max int) int { return b.inner.TruncateOldest(max) }

// Archive is the ring of a process's delivered notifications, newest last:
// the eventIds window of the flat digest is its newest |eventIds|m entries,
// and the store of older notifications kept "only ... to satisfy
// retransmission requests" (§3.2) is its newest ArchiveSize. Both are
// oldest-first windows over the same delivery sequence, so one ring of
// max(ArchiveSize, |eventIds|m) ids holds them both, and Store writes each
// delivery over the oldest entry.
//
// The ring keeps no index and makes no membership test: whether an id is
// new is decided before it is delivered (the engine's dedup digest). A pull
// names ids its target has just advertised, which a scan from the newest
// end finds among the newest |eventIds|m entries; a long request is resolved
// against a table Serve builds in one pass over the window.
//
// A ring entry is one word, origin<<32 | seq. The payloads sit behind one
// side pointer, side, nil until the first non-empty payload arrives, which
// keeps the header at 56 bytes, which every idle engine of a large system
// carries.
//
// An archive of payload-less notifications — every one the simulator
// makes — holds 8 bytes an entry; one that carries payloads holds 24.
//
// Archive is not safe for concurrent use.
type Archive struct {
	ring  []uint64     // entry i, oldest first, is ring[pos(i)], a packed id
	side  *archiveSide // nil until a payload is stored
	head  uint32       // ring position of the oldest entry; 0 until the ring first wraps
	n     uint32
	serve int // Lookup and Serve answer from the newest serve entries
	hold  int // the ring's bound, max(serve, the other window)
}

// MaxArchiveRing is the most ids an archive's ring holds, max(serve,
// window) of Init: a ring position is a uint32, and Serve's table marks a
// served entry's position + 1 with bit 31, so that must stay below 2^31.
const MaxArchiveRing = served - 1

// archiveSide is what an archive's ring cannot hold: the payloads, a ring
// as long as the id ring.
type archiveSide struct {
	pay []payloadRef // pay[p] is the payload of entry p
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

// pack returns id as a ring word.
func pack(id proto.EventID) uint64 { return uint64(id.Origin)<<32 | uint64(id.Seq) }

// NewArchive creates an archive that holds and serves the newest max
// notifications; max <= 0 disables archiving entirely (Lookup always
// misses).
func NewArchive(max int) *Archive {
	a := &Archive{}
	a.Init(max, 0)
	return a
}

// Init prepares a zero-value Archive in place, allocation-free: Lookup and
// Serve answer from the newest serve notifications (none if serve <= 0),
// and the ring holds max(serve, window) of them, so the newest window ids
// can be read as well (AppendNewest, ContainsNewest).
func (a *Archive) Init(serve, window int) {
	*a = Archive{serve: serve, hold: max(serve, window)}
}

// pos returns the ring position of entry i <= len(ring), oldest first.
func (a *Archive) pos(i uint32) uint32 {
	p := a.head + i
	if l := uint32(len(a.ring)); p >= l {
		p -= l
	}
	return p
}

// id returns the id held at ring position p.
func (a *Archive) id(p int) proto.EventID {
	w := a.ring[p]
	return proto.EventID{Origin: proto.ProcessID(w >> 32), Seq: uint32(w)}
}

// Store appends e's id as the newest entry, writing over the oldest once the
// ring is full. It makes no membership test: an id the ring still holds is
// appended again, and the windows answer for its newest copy. The payload
// is retained, not copied. The ring grows on demand and stops at its bound
// (see grown), so an archive that never stores holds nothing.
func (a *Archive) Store(e proto.Event) {
	if a.hold <= 0 {
		return
	}
	var p uint32
	if int(a.n) < a.hold {
		if int(a.n) == len(a.ring) {
			a.grow()
		}
		p = a.n // nothing is overwritten before the ring is full, so head is 0
		a.n++
	} else {
		p = a.head
		a.head = a.pos(1)
	}
	a.ring[p] = pack(e.ID)
	switch {
	case len(e.Payload) > 0:
		if a.side == nil {
			a.side = &archiveSide{pay: make([]payloadRef, len(a.ring))}
		}
		a.side.pay[p] = payloadRef{&e.Payload[0], len(e.Payload)}
	case a.side != nil:
		a.side.pay[p] = payloadRef{} // the overwritten payload is garbage from here on
	}
}

// grow enlarges a full ring toward its bound. Entry i is at position i
// before and after, and the side rings grow alike.
func (a *Archive) grow() {
	n := grown(len(a.ring), a.hold)
	ring := make([]uint64, n)
	copy(ring, a.ring)
	a.ring = ring
	if s := a.side; s != nil {
		pay := make([]payloadRef, n)
		copy(pay, s.pay)
		s.pay = pay
	}
}

// find returns the ring position of the newest copy of id among the newest w
// entries, or -1, scanning from the newest end: one word compare an entry.
func (a *Archive) find(id proto.EventID, w int) int {
	w = min(w, int(a.n))
	if w <= 0 {
		return -1
	}
	key := pack(id)
	top := int(a.head) + int(a.n) // one past the newest entry, unwrapped
	if top > len(a.ring) {
		top -= len(a.ring)
	}
	for p := top - 1; p >= max(0, top-w); p-- {
		if a.ring[p] == key {
			return p
		}
	}
	for p := len(a.ring) - 1; p >= len(a.ring)-(w-top); p-- { // the wrapped rest, if any
		if a.ring[p] == key {
			return p
		}
	}
	return -1
}

// ContainsNewest reports whether id is among the newest w entries.
func (a *Archive) ContainsNewest(id proto.EventID, w int) bool { return a.find(id, w) >= 0 }

// AppendNewest appends the newest w entries, oldest first, to dst.
func (a *Archive) AppendNewest(dst []proto.EventID, w int) []proto.EventID {
	w = min(w, int(a.n))
	if w <= 0 {
		return dst
	}
	dst = slices.Grow(dst, w) // one allocation at most, though the ring wraps
	start := int(a.pos(a.n - uint32(w)))
	for p := start; p < min(start+w, len(a.ring)); p++ {
		dst = append(dst, a.id(p))
	}
	for p := 0; p < start+w-len(a.ring); p++ { // the wrapped rest, if any
		dst = append(dst, a.id(p))
	}
	return dst
}

// Lookup returns the newest archived copy of the event with the given id.
// Its payload is the bytes Store retained, nil for an empty one.
func (a *Archive) Lookup(id proto.EventID) (proto.Event, bool) {
	p := a.find(id, a.serve)
	if p < 0 {
		return proto.Event{}, false
	}
	return a.event(id, p), true
}

// event returns the archived event id, held at ring position p.
func (a *Archive) event(id proto.EventID, p int) proto.Event {
	if a.side == nil {
		return proto.Event{ID: id}
	}
	return proto.Event{ID: id, Payload: a.side.pay[p].bytes()}
}

// serveScanMax is the request length up to which Serve finds each id by a
// scan from the newest end, as Lookup does. Past it a scan per id would
// make Serve's work the request's length times the window's, so the window
// is indexed once instead. Pulls are short and recent: on the benchmark's
// sim-loaded-seq workload 97 % of requests name at most 8 ids and 99.9 % of
// the ids named are among the newest 60, and building the table for every
// request instead lowered its proc_rounds_per_s by about a sixth (2-core
// x86-64 box).
const serveScanMax = 8

// serveTableSmall is the length of Serve's stack table: twice the default
// window of 200 fits.
const serveTableSmall = 512

// served marks a table entry whose id Serve has answered.
const served = 1 << 31

// Serve answers a retransmission request: the archived event of every id of
// req the serving window holds, in the order req first names them and once
// each however often it repeats them, with the number of ids it does not
// hold. The work is linear in req: a request longer than serveScanMax is
// resolved against an open-addressed table of the window's newest copies,
// built in one pass and kept on the stack for the default window. reply is
// nil when nothing is held.
func (a *Archive) Serve(req []proto.EventID) (reply []proto.Event, misses int) {
	w := min(a.serve, int(a.n))
	if w <= 0 {
		return nil, len(req)
	}
	if len(req) <= serveScanMax {
		for i, id := range req {
			p := a.find(id, w)
			if p < 0 {
				misses++
				continue
			}
			if slices.ContainsFunc(reply, func(e proto.Event) bool { return e.ID == id }) {
				continue
			}
			if reply == nil {
				reply = make([]proto.Event, 0, min(len(req)-i, w))
			}
			reply = append(reply, a.event(id, p))
		}
		return reply, misses
	}
	var small [serveTableSmall]uint32
	t := small[:]
	if 2*w > len(small) {
		t = make([]uint32, 2*w)
	}
	// t[i] is a ring position + 1, 0 for an empty entry, with the served bit.
	home := func(id proto.EventID) int { return int(uint64(hashID(id)) * uint64(len(t)) >> 32) }
	next := func(j int) int {
		if j++; j == len(t) {
			return 0
		}
		return j
	}
	for i := 0; i < w; i++ { // newest first, so an older copy finds its id taken
		p := a.pos(a.n - 1 - uint32(i))
		id := a.id(int(p))
		j := home(id)
		for ; t[j] != 0 && a.id(int(t[j]-1)) != id; j = next(j) {
		}
		if t[j] == 0 {
			t[j] = p + 1
		}
	}
	for i, id := range req {
		j := home(id)
		for ; t[j] != 0 && a.id(int(t[j]&^served-1)) != id; j = next(j) {
		}
		switch e := t[j]; {
		case e == 0:
			misses++
		case e&served == 0:
			t[j] |= served
			if reply == nil {
				reply = make([]proto.Event, 0, min(len(req)-i, w))
			}
			reply = append(reply, a.event(id, int(e-1)))
		}
	}
	return reply, misses
}

// Len returns the number of ids the ring holds: at most max(serve, window)
// of Init, the newest of them served.
func (a *Archive) Len() int { return int(a.n) }
