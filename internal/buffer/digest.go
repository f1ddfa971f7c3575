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
// than 64 past the watermark goes to a per-origin overflow set.
//
// The zero value is an empty digest: the table materializes on the first
// Add, so constructing a process's digest costs nothing.
type CompactDigest struct {
	slots []originSlot // linear probing; len is zero or a power of two >= 2
	n     int          // tracked origins, at most 3/4 of len(slots)
}

// originSlot is one origin's state. A slot is in use exactly when it
// records a delivery — watermark, window or far is non-zero — which Add
// guarantees for every origin it inserts; nothing is ever removed.
type originSlot struct {
	origin    proto.ProcessID
	watermark uint64              // all seq in [1..watermark] delivered
	window    uint64              // bit i: seq watermark+1+i delivered; bit 0 stays clear
	far       map[uint64]struct{} // delivered seqs past watermark+64; nil almost always
}

func (s *originSlot) used() bool { return s.watermark|s.window != 0 || s.far != nil }

// NewCompactDigest creates an empty digest.
func NewCompactDigest() *CompactDigest {
	return &CompactDigest{}
}

// find returns origin's slot, or the empty slot it would occupy; nil only
// while the table is unallocated.
func (d *CompactDigest) find(origin proto.ProcessID) *originSlot {
	if len(d.slots) == 0 {
		return nil
	}
	mask := uint64(len(d.slots) - 1)
	shift := bits.LeadingZeros64(mask) // 64 - log2(len): the hash's top bits index the table
	for i := uint64(origin) * 0x9e3779b97f4a7c15 >> shift; ; i = (i + 1) & mask {
		if s := &d.slots[i]; s.origin == origin || !s.used() {
			return s
		}
	}
}

// grow doubles the table and reinserts every origin.
func (d *CompactDigest) grow() {
	old := d.slots
	d.slots = make([]originSlot, max(2, 2*len(old)))
	for i := range old {
		if old[i].used() {
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
	_, ok := s.far[id.Seq]
	return ok
}

// Add records id, reporting whether it was new. Contiguous sparse entries
// are absorbed into the watermark.
func (d *CompactDigest) Add(id proto.EventID) bool {
	if id.Seq == 0 {
		return false
	}
	s := d.find(id.Origin)
	if s == nil || !s.used() {
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
	if off := id.Seq - s.watermark - 1; off < 64 {
		if s.window>>off&1 != 0 {
			return false
		}
		s.window |= 1 << off
	} else {
		if _, dup := s.far[id.Seq]; dup {
			return false
		}
		if s.far == nil {
			s.far = make(map[uint64]struct{})
		}
		s.far[id.Seq] = struct{}{}
	}
	// Absorb the now-contiguous run into the watermark; the window slides
	// with it and takes in what the overflow set held for its new range.
	for s.window&1 != 0 {
		run := bits.TrailingZeros64(^s.window)
		s.watermark += uint64(run)
		s.window >>= run
		for seq := range s.far {
			if off := seq - s.watermark - 1; off < 64 {
				s.window |= 1 << off
				delete(s.far, seq)
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
		n += bits.OnesCount64(d.slots[i].window) + len(d.slots[i].far)
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
		if !s.used() {
			continue
		}
		sp := make([]uint64, 0, bits.OnesCount64(s.window)+len(s.far))
		for w := s.window; w != 0; w &= w - 1 {
			sp = append(sp, s.watermark+1+uint64(bits.TrailingZeros64(w)))
		}
		for seq := range s.far {
			sp = append(sp, seq)
		}
		slices.Sort(sp[len(sp)-len(s.far):]) // every far seq lies past the window
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
