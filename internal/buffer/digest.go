package buffer

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/proto"
)

// CompactDigest is the paper's §3.2 optimization of the eventIds buffer:
// because identifiers embed their originator and a per-origin sequence
// number, the buffer "can be optimized by only retaining for each sender
// the identifiers of notifications delivered since the last one delivered
// in sequence". Per origin we keep a watermark W — every sequence number
// <= W has been delivered — plus the sparse set of delivered sequence
// numbers above W.
//
// Compared to the flat window, membership information about an in-order
// prefix of each origin's stream costs O(1) instead of O(prefix length).
//
// The origins live inline in one open-addressed table of 8-byte slots, a
// 32-bit origin and a 32-bit watermark, so Contains of an id at or below
// its watermark is one multiplicative hash and, almost always, one cache
// line. Every origin the simulator, the bus and a cluster number is below
// 2^32, and an honest watermark is a count of events. What a slot cannot
// hold sits behind one side pointer, side, allocated when first needed:
//
//   - ahead, a map keyed by origin of what an origin has delivered above
//     its watermark — almost always nothing: a loaded process holds such a
//     delivery for well under one origin in a hundred — a 64-bit window just
//     above the watermark and, for a sequence number more than 64 past it,
//     an ascending overflow list. An origin has an entry only while it has
//     such a delivery, and the map is not read at all while it is empty.
//   - wide, a table of 16-byte slots, 64-bit origin and watermark, for the
//     origins past 2^32-1 and for the watermarks that reach wideMark: such
//     an origin's slot holds wideMark, "at least this", and the watermark
//     itself is in wide.
//
// Both tables take any length (a home slot is the high word of hash ×
// length) and grow by a quarter.
//
// There are two reads. Contains answers for one id. AppendMissing answers
// for a gossip's whole digest, in two loops: the first loads the home slot
// of every id and decides nothing, so the cache misses of up to 64 ids are
// outstanding together; the second resolves the ids against what the first
// loaded. A receiver's table is cold when a gossip arrives — a simulated
// system holds a thousand of them — and one Contains per id waited out
// each miss before it could issue the next.
//
// The zero value is an empty digest: the table materializes on the first
// Add, so constructing a process's digest costs nothing. The header stays
// at 40 bytes — the table's slice and count, 32, and side, 8 — because
// every idle engine of a large system carries one.
type CompactDigest struct {
	narrow table[uint32] // the origins below 2^32
	side   *digestSide   // nil until an origin has a delivery ahead or is wide
}

// digestSide is what a digest's table cannot hold.
type digestSide struct {
	// ahead holds, per origin, the deliveries above its watermark; an
	// origin has an entry only while it has one, so it is empty almost always.
	ahead map[proto.ProcessID]aheadSet
	wide  table[uint64] // origins past 2^32-1, and watermarks from wideMark
	// beyond counts the origins past 2^32-1: wide.n less the narrow
	// origins whose watermark reached wideMark.
	beyond int
}

// wideMark in a narrow slot says the origin's watermark is at least 2^32-1
// and is held in the side's wide table. An id at or below it is still
// settled by the slot alone.
const wideMark = math.MaxUint32

// slot is one origin's state in a table of width K. A slot is in use
// exactly when its origin is not 0 — NilProcess, which Add refuses; nothing
// is ever removed.
type slot[K uint32 | uint64] struct {
	origin    K
	watermark K // all seq in [1..watermark] delivered
}

// originSlot is a slot of the digest's own table: 8 bytes.
type originSlot = slot[uint32]

// table is an open-addressed table of slots: linear probing, any length, at
// most 3/4 full.
type table[K uint32 | uint64] struct {
	slots []slot[K]
	n     int // origins held
}

// aheadSet is what one origin has delivered above its watermark; never
// stored empty.
type aheadSet struct {
	window uint64   // bit i: seq watermark+1+i delivered; bit 0 stays clear
	far    []uint64 // ascending seqs delivered past watermark+64, at most maxFar
}

// maxFar bounds an origin's overflow list, as maxWatermarkExpansion bounds
// what one advertised watermark fans out into: a peer that sends ids ever
// further ahead of a watermark that never moves would otherwise grow it
// without end. A full list refuses rather than forgets: every seq past its
// last entry counts as delivered, so Contains answers true and Add false,
// and a newcomer nearer than the last takes its place, which only lowers
// that horizon. While the list is full no id is new twice; once the
// watermark drains it below the bound, what lies past its last — refused,
// or pushed out — is new again, so a copy comes back only as the origin's
// stream advances, never at every receipt. An honest run reaches the bound
// only behind a hole that never fills or a stream first heard mid-way, and
// there the list folds into the watermark (folds) before it refuses.
// The list is a sorted slice rather than a set because a set's deletes
// under that churn leave it ever larger.
const maxFar = 1024

// folds reports whether an origin at watermark w gives up the holes below
// its full overflow list far: when the list starts within one window past
// the window — a hole that never fills, with everything after it delivered
// — or when the origin has never delivered in order, because its stream was
// first heard past the window's reach. The watermark then rises to just
// below the list's first entry, what it passes over counts as delivered,
// and the list is absorbed. Without the fold either kind of origin fills the
// list and is refused from then on: deaf to every later id. A list ever
// further ahead of a watermark above 0 — a hostile flood — still refuses.
func folds(w uint64, far []uint64) bool {
	return len(far) == maxFar && (w == 0 || far[0]-w <= 2*64)
}

// NewCompactDigest creates an empty digest.
func NewCompactDigest() *CompactDigest {
	return &CompactDigest{}
}

// hashMul is the multiplicative hash's odd constant, 2^64 over the golden
// ratio.
const hashMul = 0x9e3779b97f4a7c15

// homeSlot scales origin's hash from [0, 2^64) to a table's [0, n).
func homeSlot(origin proto.ProcessID, n int) uint64 {
	hi, _ := bits.Mul64(uint64(origin)*hashMul, uint64(n))
	return hi
}

// find returns origin's slot, or the empty slot it would occupy; nil only
// while the table is unallocated.
func (t *table[K]) find(origin K) *slot[K] {
	if len(t.slots) == 0 {
		return nil
	}
	for i := homeSlot(proto.ProcessID(origin), len(t.slots)); ; {
		if s := &t.slots[i]; s.origin == origin || s.origin == 0 {
			return s
		}
		if i++; i == uint64(len(t.slots)) {
			i = 0
		}
	}
}

// insert returns origin's slot, claiming one if origin is new, and reports
// whether it was.
func (t *table[K]) insert(origin K) (*slot[K], bool) {
	s := t.find(origin)
	if s != nil && s.origin != 0 {
		return s, false
	}
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
		s = t.find(origin)
	}
	s.origin = origin
	t.n++
	return s, true
}

// grow lengthens the table by a quarter — and by what the allocator's size
// class adds, which append returns as capacity — and reinserts every origin.
func (t *table[K]) grow() {
	old := t.slots
	t.slots = append([]slot[K](nil), make([]slot[K], len(old)+len(old)/4+2)...)
	t.slots = t.slots[:cap(t.slots)]
	for i := range old {
		if old[i].origin != 0 {
			*t.find(old[i].origin) = old[i]
		}
	}
}

// sideStore returns the side, allocating it on first use.
func (d *CompactDigest) sideStore() *digestSide {
	if d.side == nil {
		d.side = &digestSide{}
	}
	return d.side
}

// aheads returns the side map, nil while there is no side.
func (d *CompactDigest) aheads() map[proto.ProcessID]aheadSet {
	if d.side == nil {
		return nil
	}
	return d.side.ahead
}

// holdsAhead reports whether origin has a delivery above its watermark.
func (d *CompactDigest) holdsAhead(origin proto.ProcessID) bool {
	ahead := d.aheads()
	if len(ahead) == 0 {
		return false
	}
	_, held := ahead[origin]
	return held
}

// mark returns origin's watermark and whether the digest tracks origin.
func (d *CompactDigest) mark(origin proto.ProcessID) (uint64, bool) {
	if origin <= math.MaxUint32 {
		s := d.narrow.find(uint32(origin))
		if s == nil || s.origin == 0 {
			return 0, false
		}
		if s.watermark != wideMark {
			return uint64(s.watermark), true
		}
	}
	// Past 2^32-1, or a slot at wideMark: the wide table holds the watermark.
	if d.side == nil {
		return 0, false
	}
	ws := d.side.wide.find(uint64(origin))
	if ws == nil || ws.origin == 0 {
		return 0, false
	}
	return ws.watermark, true
}

// setMark stores w as origin's watermark: in its narrow slot s while it
// lies below wideMark, else in its wide slot ws, which a narrow origin
// claims the first time its watermark reaches wideMark.
func (d *CompactDigest) setMark(origin proto.ProcessID, s *originSlot, ws *slot[uint64], w uint64) {
	if ws == nil {
		if w < wideMark {
			s.watermark = uint32(w)
			return
		}
		s.watermark = wideMark
		ws, _ = d.sideStore().wide.insert(uint64(origin))
	}
	ws.watermark = w
}

// Contains reports whether id has been recorded. Sequence numbering starts
// at 1; seq 0 is never contained.
func (d *CompactDigest) Contains(id proto.EventID) bool {
	if id.Origin <= math.MaxUint32 {
		// 1 <= Seq <= the slot's watermark: a free slot's is 0, and a slot
		// at wideMark holds at least that much.
		if s := d.narrow.find(uint32(id.Origin)); s != nil && id.Seq-1 < uint64(s.watermark) {
			return true
		}
	}
	w, ok := d.mark(id.Origin)
	if !ok || id.Seq == 0 {
		return false
	}
	if id.Seq <= w {
		return true
	}
	ahead := d.aheads()
	if len(ahead) == 0 {
		return false
	}
	a := ahead[id.Origin]
	if off := id.Seq - w - 1; off < 64 {
		return a.window>>off&1 != 0
	}
	i, ok := slices.BinarySearch(a.far, id.Seq)
	return ok || i == maxFar // past a full list: refused, so held as delivered
}

// missingBlock is how many ids AppendMissing resolves per pass: enough
// independent loads to fill the core's miss queue several times over, few
// enough that the loaded copies stay on the stack (512 B).
const missingBlock = 64

// AppendMissing appends to dst the valid ids — a real originator, Seq >= 1 —
// that the digest does not contain, in the order given, and returns the
// extended slice: the batched form of one Contains per id, and like it a
// pure read. With room in dst it allocates nothing.
//
// The first loop over a block loads each id's home slot and nothing else:
// no branch hangs on what it loads, so the loads of a whole block are in
// flight together. The second settles, against the copies the first made
// (the loads are real data flow, nothing can elide them), the common case
// of an id at or below its origin's watermark — a slot at wideMark holds at
// least that much, and no narrow slot matches an origin past 2^32-1 — and
// asks Contains — of a table now in cache — about the rest: a home slot
// that is another origin's, a sequence number above the watermark.
func (d *CompactDigest) AppendMissing(dst, ids []proto.EventID) []proto.EventID {
	var home [missingBlock]originSlot
	slots := d.narrow.slots
	for len(ids) > 0 {
		blk := ids[:min(len(ids), missingBlock)]
		ids = ids[len(blk):]
		if len(slots) != 0 { // else home stays zeroed and matches no valid id
			for j, id := range blk {
				home[j] = slots[homeSlot(id.Origin, len(slots))]
			}
		}
		for j, id := range blk {
			if id.Origin == proto.NilProcess || id.Seq == 0 {
				continue
			}
			if uint64(home[j].origin) == uint64(id.Origin) && id.Seq <= uint64(home[j].watermark) {
				continue
			}
			if !d.Contains(id) {
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// Add records id, reporting whether it was new. Contiguous sparse entries
// are absorbed into the watermark. Seq 0 and NilProcess make no id.
func (d *CompactDigest) Add(id proto.EventID) bool {
	if id.Origin <= math.MaxUint32 {
		// The in-order delivery, almost every Add: a free slot's origin is
		// 0, and seq 0 follows no watermark.
		s := d.narrow.find(uint32(id.Origin))
		if s != nil && s.origin != 0 && id.Seq == uint64(s.watermark)+1 && s.watermark < wideMark-1 && !d.holdsAhead(id.Origin) {
			s.watermark++
			return true
		}
	}
	if id.Seq == 0 || id.Origin == proto.NilProcess {
		return false
	}
	// A new origin is claimed at once: any seq >= 1 is new to it, so the
	// insert is certain.
	var s *originSlot
	var ws *slot[uint64] // origin's wide slot, if its watermark lives there
	var w uint64
	if id.Origin <= math.MaxUint32 {
		s, _ = d.narrow.insert(uint32(id.Origin))
		if w = uint64(s.watermark); w == wideMark {
			ws = d.side.wide.find(uint64(id.Origin))
			w = ws.watermark
		}
	} else {
		side := d.sideStore()
		var fresh bool
		if ws, fresh = side.wide.insert(uint64(id.Origin)); fresh {
			side.beyond++
		}
		w = ws.watermark
	}
	if id.Seq <= w {
		return false
	}
	var a aheadSet
	held := false
	if ahead := d.aheads(); len(ahead) != 0 {
		a, held = ahead[id.Origin]
	}
	if off := id.Seq - w - 1; off < 64 {
		if a.window>>off&1 != 0 {
			return false
		}
		a.window |= 1 << off
	} else {
		i, dup := slices.BinarySearch(a.far, id.Seq)
		if dup || i == maxFar { // held, or past a full list
			return false
		}
		if len(a.far) == maxFar {
			a.far = a.far[:maxFar-1] // the last now lies past the list: still held
		}
		a.far = slices.Insert(a.far, i, id.Seq)
	}
	// Absorb the now-contiguous run into the watermark; the window slides
	// with it and takes in the front of the overflow list that its new
	// range covers. A full list that folds (folds) moves the watermark to
	// just below its first entry, and the list drains into the window.
	for {
		k := 0
		for ; k < len(a.far) && a.far[k]-w-1 < 64; k++ {
			a.window |= 1 << (a.far[k] - w - 1)
		}
		if k == len(a.far) {
			a.far = nil
		} else if k > 0 {
			a.far = slices.Delete(a.far, 0, k)
		}
		if a.window&1 != 0 {
			run := bits.TrailingZeros64(^a.window)
			w += uint64(run)
			a.window >>= run
		} else if folds(w, a.far) {
			w, a.window = a.far[0]-1, 0
		} else {
			break
		}
	}
	d.setMark(id.Origin, s, ws, w)
	switch {
	case a.window != 0 || len(a.far) != 0:
		side := d.sideStore()
		if side.ahead == nil {
			side.ahead = make(map[proto.ProcessID]aheadSet)
		}
		side.ahead[id.Origin] = a
	case held && len(d.side.ahead) == 1:
		// The last gap closed. A delete would leave a tombstone where the
		// map has grown past one group, and a map that fills and drains
		// over and over would grow with them; clear resets them.
		clear(d.side.ahead)
	case held: // the gap closed
		delete(d.side.ahead, id.Origin)
	}
	return true
}

// SparseLen returns the total number of explicitly retained (out-of-order)
// identifiers across all origins — the memory the compaction saves shows up
// as the gap between this and a flat buffer's length.
func (d *CompactDigest) SparseLen() int {
	n := 0
	for _, a := range d.aheads() {
		n += bits.OnesCount64(a.window) + len(a.far)
	}
	return n
}

// Origins returns the number of tracked origins.
func (d *CompactDigest) Origins() int {
	if d.side == nil {
		return d.narrow.n
	}
	return d.narrow.n + d.side.beyond
}

// Watermark returns the contiguous delivered prefix for origin.
func (d *CompactDigest) Watermark(origin proto.ProcessID) uint64 {
	w, _ := d.mark(origin)
	return w
}

// AppendSparse appends to dst every id retained above its origin's
// watermark, ordered by origin and then sequence number, and returns the
// extended slice. With room in dst it allocates nothing.
func (d *CompactDigest) AppendSparse(dst []proto.EventID) []proto.EventID {
	n := len(dst)
	for origin, a := range d.aheads() {
		next := d.Watermark(origin) + 1
		for w := a.window; w != 0; w &= w - 1 {
			dst = append(dst, proto.EventID{Origin: origin, Seq: next + uint64(bits.TrailingZeros64(w))})
		}
		for _, seq := range a.far {
			dst = append(dst, proto.EventID{Origin: origin, Seq: seq})
		}
	}
	slices.SortFunc(dst[n:], compareIDs)
	return dst
}

// AppendWatermarks appends to dst, for every origin with a watermark above
// 0, the id {origin, watermark}, ordered by origin, and returns the
// extended slice. With room in dst it allocates nothing.
func (d *CompactDigest) AppendWatermarks(dst []proto.EventID) []proto.EventID {
	n := len(dst)
	for _, s := range d.narrow.slots {
		if s.watermark > 0 && s.watermark != wideMark { // never so in a free slot; wideMark's in wide
			dst = append(dst, proto.EventID{Origin: proto.ProcessID(s.origin), Seq: uint64(s.watermark)})
		}
	}
	if d.side != nil {
		for _, s := range d.side.wide.slots {
			if s.watermark > 0 {
				dst = append(dst, proto.EventID{Origin: proto.ProcessID(s.origin), Seq: s.watermark})
			}
		}
	}
	slices.SortFunc(dst[n:], compareIDs)
	return dst
}

// compareIDs orders ids by origin and then sequence number.
func compareIDs(a, b proto.EventID) int {
	if c := cmp.Compare(a.Origin, b.Origin); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}
