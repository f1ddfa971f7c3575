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
// Compared to the flat IDBuffer, membership information about an in-order
// prefix of each origin's stream costs O(1) instead of O(prefix length).
//
// The origins live inline in one open-addressed table, and an origin's
// sparse set is a 64-bit window just above its watermark, so Contains is
// one multiplicative hash and, almost always, one cache line, and an
// out-of-order delivery allocates nothing. Only a sequence number more
// than 64 past the watermark goes to a per-origin overflow set, kept beside
// the table so that a slot carries no pointer. The table takes any length (a
// home slot is the high word of hash × length) and grows by a quarter.
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
// Add, so constructing a process's digest costs nothing.
type CompactDigest struct {
	slots []originSlot // linear probing, any length
	n     int          // tracked origins, at most 3/4 of len(slots)
	// far holds, per origin, the delivered seqs past watermark+64; nil almost always.
	far map[proto.ProcessID]map[uint64]struct{}
}

// originSlot is one origin's state. A slot is in use exactly when its origin
// is not NilProcess, which Add refuses; nothing is ever removed.
type originSlot struct {
	origin    proto.ProcessID
	watermark uint64 // all seq in [1..watermark] delivered
	window    uint64 // bit i: seq watermark+1+i delivered; bit 0 stays clear
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
func (d *CompactDigest) find(origin proto.ProcessID) *originSlot {
	if len(d.slots) == 0 {
		return nil
	}
	for i := homeSlot(origin, len(d.slots)); ; {
		if s := &d.slots[i]; s.origin == origin || s.origin == proto.NilProcess {
			return s
		}
		if i++; i == uint64(len(d.slots)) {
			i = 0
		}
	}
}

// grow lengthens the table by a quarter — and by what the allocator's size
// class adds, which append returns as capacity — and reinserts every origin.
func (d *CompactDigest) grow() {
	old := d.slots
	d.slots = append([]originSlot(nil), make([]originSlot, len(old)+len(old)/4+2)...)
	d.slots = d.slots[:cap(d.slots)]
	for i := range old {
		if old[i].origin != proto.NilProcess {
			*d.find(old[i].origin) = old[i]
		}
	}
}

// Contains reports whether id has been recorded. Sequence numbering starts
// at 1; seq 0 is never contained.
func (d *CompactDigest) Contains(id proto.EventID) bool {
	s := d.find(id.Origin)
	if s == nil || id.Seq == 0 {
		return false
	}
	if id.Seq <= s.watermark {
		return true
	}
	if off := id.Seq - s.watermark - 1; off < 64 {
		return s.window>>off&1 != 0
	}
	_, ok := d.far[id.Origin][id.Seq]
	return ok
}

// missingBlock is how many ids AppendMissing resolves per pass: enough
// independent loads to fill the core's miss queue several times over, few
// enough that the loaded copies stay on the stack (1 KB).
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
// table now in cache — about the rest: a home slot that is another origin's,
// a sequence number above the watermark.
func (d *CompactDigest) AppendMissing(dst, ids []proto.EventID) []proto.EventID {
	var home [missingBlock]struct {
		origin    proto.ProcessID
		watermark uint64
	}
	for len(ids) > 0 {
		blk := ids[:min(len(ids), missingBlock)]
		ids = ids[len(blk):]
		if len(d.slots) != 0 { // else home stays zeroed and matches no valid id
			for j, id := range blk {
				s := &d.slots[homeSlot(id.Origin, len(d.slots))]
				home[j].origin, home[j].watermark = s.origin, s.watermark
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
	s := d.find(id.Origin)
	if s == nil || s.origin == proto.NilProcess {
		// A new origin: any seq >= 1 is new to it, so the insert is certain.
		if (d.n+1)*4 > len(d.slots)*3 {
			d.grow()
			s = d.find(id.Origin)
		}
		s.origin = id.Origin
		d.n++
	}
	if id.Seq <= s.watermark {
		return false
	}
	far := d.far[id.Origin] // this origin's overflow set
	if off := id.Seq - s.watermark - 1; off < 64 {
		if s.window>>off&1 != 0 {
			return false
		}
		s.window |= 1 << off
	} else {
		if _, dup := far[id.Seq]; dup {
			return false
		}
		if far == nil {
			if d.far == nil {
				d.far = make(map[proto.ProcessID]map[uint64]struct{})
			}
			far = make(map[uint64]struct{})
			d.far[id.Origin] = far
		}
		far[id.Seq] = struct{}{}
	}
	// Absorb the now-contiguous run into the watermark; the window slides
	// with it and takes in what the overflow set held for its new range.
	for s.window&1 != 0 {
		run := bits.TrailingZeros64(^s.window)
		s.watermark += uint64(run)
		s.window >>= run
		for seq := range far {
			if off := seq - s.watermark - 1; off < 64 {
				s.window |= 1 << off
				delete(far, seq)
			}
		}
	}
	return true
}

// SparseLen returns the total number of explicitly retained (out-of-order)
// identifiers across all origins — the memory the compaction saves shows up
// as the gap between this and a flat buffer's length.
func (d *CompactDigest) SparseLen() int {
	n := 0
	for i := range d.slots {
		n += bits.OnesCount64(d.slots[i].window)
	}
	for _, far := range d.far {
		n += len(far)
	}
	return n
}

// Origins returns the number of tracked origins.
func (d *CompactDigest) Origins() int { return d.n }

// Watermark returns the contiguous delivered prefix for origin.
func (d *CompactDigest) Watermark(origin proto.ProcessID) uint64 {
	if s := d.find(origin); s != nil {
		return s.watermark
	}
	return 0
}

// Summary lists, per origin, the watermark and the ascending sparse
// sequence numbers. The slice is ordered by origin for determinism.
func (d *CompactDigest) Summary() []DigestEntry {
	out := make([]DigestEntry, 0, d.n)
	for i := range d.slots {
		s := &d.slots[i]
		if s.origin == proto.NilProcess {
			continue
		}
		far := d.far[s.origin]
		sp := make([]uint64, 0, bits.OnesCount64(s.window)+len(far))
		for w := s.window; w != 0; w &= w - 1 {
			sp = append(sp, s.watermark+1+uint64(bits.TrailingZeros64(w)))
		}
		for seq := range far {
			sp = append(sp, seq)
		}
		slices.Sort(sp[len(sp)-len(far):]) // every far seq lies past the window
		out = append(out, DigestEntry{Origin: s.origin, Watermark: s.watermark, Sparse: sp})
	}
	slices.SortFunc(out, func(a, b DigestEntry) int { return cmp.Compare(a.Origin, b.Origin) })
	return out
}

// DigestEntry is one origin's compacted digest state.
type DigestEntry struct {
	Origin    proto.ProcessID
	Watermark uint64
	Sparse    []uint64
}
