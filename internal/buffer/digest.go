package buffer

import (
	"cmp"
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
// The origins live inline in one open-addressed table of 8-byte slots, an
// origin and its watermark, so Contains of an id at or below its watermark
// is one multiplicative hash and, almost always, one cache line. What an
// origin has delivered above its watermark — almost always nothing: a
// loaded process holds such a delivery for well under one origin in a
// hundred — sits in one side map, ahead, made when first needed: a 64-bit
// window just above the watermark and, for a sequence number more than 64
// past it, an ascending overflow list. An origin has an entry only while
// it has such a delivery, and the map is not read at all while it is
// empty. The table takes any length (a home slot is the high word of hash
// × length) and grows by a quarter.
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
// at 40 bytes — the table's slice and count, 32, and the map, 8 — because
// every idle engine of a large system carries one.
type CompactDigest struct {
	slots []slot // open-addressed, linear probing, at most 3/4 full
	n     int    // origins held
	// ahead holds, per origin, the deliveries above its watermark; nil
	// until the first such delivery, and an origin has an entry only while
	// it has one, so it is empty almost always.
	ahead map[proto.ProcessID]aheadSet
}

// slot is one origin's state: 8 bytes. A slot is in use exactly when its
// origin is not 0 — NilProcess, which Add refuses; nothing is ever removed.
type slot struct {
	origin    proto.ProcessID
	watermark uint32 // all seq in [1..watermark] delivered
}

// aheadSet is what one origin has delivered above its watermark; never
// stored empty.
type aheadSet struct {
	window uint64   // bit i: seq watermark+1+i delivered; bit 0 stays clear
	far    []uint32 // ascending seqs delivered past watermark+64, at most maxFar
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
func folds(w uint64, far []uint32) bool {
	return len(far) == maxFar && (w == 0 || uint64(far[0])-w <= 2*64)
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
func (d *CompactDigest) find(origin proto.ProcessID) *slot {
	if len(d.slots) == 0 {
		return nil
	}
	for i := homeSlot(origin, len(d.slots)); ; {
		if s := &d.slots[i]; s.origin == origin || s.origin == 0 {
			return s
		}
		if i++; i == uint64(len(d.slots)) {
			i = 0
		}
	}
}

// insert returns origin's slot, claiming one if origin is new.
func (d *CompactDigest) insert(origin proto.ProcessID) *slot {
	s := d.find(origin)
	if s != nil && s.origin != 0 {
		return s
	}
	if (d.n+1)*4 > len(d.slots)*3 {
		d.grow()
		s = d.find(origin)
	}
	s.origin = origin
	d.n++
	return s
}

// grow lengthens the table by a quarter — and by what the allocator's size
// class adds, which append returns as capacity — and reinserts every origin.
func (d *CompactDigest) grow() {
	old := d.slots
	d.slots = append([]slot(nil), make([]slot, len(old)+len(old)/4+2)...)
	d.slots = d.slots[:cap(d.slots)]
	for i := range old {
		if old[i].origin != 0 {
			*d.find(old[i].origin) = old[i]
		}
	}
}

// holdsAhead reports whether origin has a delivery above its watermark.
func (d *CompactDigest) holdsAhead(origin proto.ProcessID) bool {
	if len(d.ahead) == 0 {
		return false
	}
	_, held := d.ahead[origin]
	return held
}

// Contains reports whether id has been recorded. Sequence numbering starts
// at 1; seq 0 is never contained.
func (d *CompactDigest) Contains(id proto.EventID) bool {
	s := d.find(id.Origin)
	if s == nil || s.origin == 0 || id.Seq == 0 {
		return false
	}
	if id.Seq <= s.watermark {
		return true
	}
	if len(d.ahead) == 0 {
		return false
	}
	a := d.ahead[id.Origin]
	if off := id.Seq - s.watermark - 1; off < 64 {
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
// of an id at or below its origin's watermark, and asks Contains — of a
// table now in cache — about the rest: a home slot that is another
// origin's, a sequence number above the watermark.
func (d *CompactDigest) AppendMissing(dst, ids []proto.EventID) []proto.EventID {
	var home [missingBlock]slot
	slots := d.slots
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
			if home[j].origin == id.Origin && id.Seq <= home[j].watermark {
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
	if id.Seq == 0 || id.Origin == proto.NilProcess {
		return false
	}
	// A new origin is claimed at once: any seq >= 1 is new to it, so the
	// insert is certain.
	s := d.insert(id.Origin)
	if id.Seq <= s.watermark {
		return false
	}
	if id.Seq-1 == s.watermark && !d.holdsAhead(id.Origin) {
		// The in-order delivery, almost every Add.
		s.watermark++
		return true
	}
	// The window's arithmetic is in 64 bits: the watermark plus an offset
	// may pass 2^32-1 before the window is known to hold nothing there.
	w := uint64(s.watermark)
	a, held := d.ahead[id.Origin]
	if off := uint64(id.Seq) - w - 1; off < 64 {
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
		for ; k < len(a.far) && uint64(a.far[k])-w-1 < 64; k++ {
			a.window |= 1 << (uint64(a.far[k]) - w - 1)
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
			w, a.window = uint64(a.far[0])-1, 0
		} else {
			break
		}
	}
	s.watermark = uint32(w) // every seq the window passed over is a uint32
	switch {
	case a.window != 0 || len(a.far) != 0:
		if d.ahead == nil {
			d.ahead = make(map[proto.ProcessID]aheadSet)
		}
		d.ahead[id.Origin] = a
	case held && len(d.ahead) == 1:
		// The last gap closed. A delete would leave a tombstone where the
		// map has grown past one group, and a map that fills and drains
		// over and over would grow with them; clear resets them.
		clear(d.ahead)
	case held: // the gap closed
		delete(d.ahead, id.Origin)
	}
	return true
}

// SparseLen returns the total number of explicitly retained (out-of-order)
// identifiers across all origins — the memory the compaction saves shows up
// as the gap between this and a flat buffer's length.
func (d *CompactDigest) SparseLen() int {
	n := 0
	for _, a := range d.ahead {
		n += bits.OnesCount64(a.window) + len(a.far)
	}
	return n
}

// Origins returns the number of tracked origins.
func (d *CompactDigest) Origins() int { return d.n }

// Watermark returns the contiguous delivered prefix for origin.
func (d *CompactDigest) Watermark(origin proto.ProcessID) uint32 {
	if s := d.find(origin); s != nil && s.origin == origin {
		return s.watermark
	}
	return 0
}

// AppendSparse appends to dst every id retained above its origin's
// watermark, ordered by origin and then sequence number, and returns the
// extended slice. With room in dst it allocates nothing.
func (d *CompactDigest) AppendSparse(dst []proto.EventID) []proto.EventID {
	n := len(dst)
	for origin, a := range d.ahead {
		next := d.Watermark(origin) + 1
		for w := a.window; w != 0; w &= w - 1 {
			dst = append(dst, proto.EventID{Origin: origin, Seq: next + uint32(bits.TrailingZeros64(w))})
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
	for _, s := range d.slots {
		if s.watermark > 0 { // never so in a free slot
			dst = append(dst, proto.EventID{Origin: s.origin, Seq: s.watermark})
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
