package buffer

import (
	"math/bits"
	"slices"

	"repro/internal/pool"
	"repro/internal/proto"
)

// fifoSmall is the length up to which a FIFO keeps no index: membership is
// a scan over a handful of ring entries, so the near-empty buffers of a
// large, mostly idle system never pay for a table.
const fifoSmall = 8

// FIFO is an insertion-ordered, duplicate-free list of values keyed by
// event identifier, with oldest-first eviction — the common substrate of
// the eventIds window, the retransmission archive and pbcast's message
// store. The values sit in a ring, so evicting the oldest is a head
// increment, and past fifoSmall entries an open-addressed index maps a key
// to its ring position, so membership and lookup never scan. A ring
// position is stable for the life of its entry.
//
// FIFO is not safe for concurrent use.
type FIFO[V any] struct {
	key  func(V) proto.EventID
	ring []V       // len is zero or a power of two; entry i is ring[(head+i)&mask]
	idx  []fifoRef // linear probing, len 2*len(ring); nil while small
	head uint32    // ring position of the oldest entry
	n    uint32
}

// fifoRef is one index entry. The stored hash gives the entry's home
// position without a trip to the ring, which is what a deletion's backward
// shift needs of every entry it passes.
type fifoRef struct {
	hash uint32
	pos  uint32 // ring position + 1; 0 marks an empty entry
}

// NewFIFO creates a list whose elements are identified by key.
func NewFIFO[V any](key func(V) proto.EventID) *FIFO[V] {
	f := &FIFO[V]{}
	f.Init(key)
	return f
}

// Init prepares a zero-value list in place, allocation-free.
func (f *FIFO[V]) Init(key func(V) proto.EventID) { f.key = key }

func hashID(id proto.EventID) uint32 {
	return uint32((uint64(id.Origin)*0x9e3779b97f4a7c15 ^ id.Seq*0xc2b2ae3d27d4eb4f) >> 32)
}

// idxShift turns a hash into its home position: the top log2(len(idx)) bits.
func (f *FIFO[V]) idxShift() int { return bits.LeadingZeros32(uint32(len(f.idx) - 1)) }

// find returns the ring position of the entry with key k, or -1.
func (f *FIFO[V]) find(k proto.EventID) int {
	if f.idx == nil {
		mask := uint32(len(f.ring) - 1)
		for i := uint32(0); i < f.n; i++ {
			if p := (f.head + i) & mask; f.key(f.ring[p]) == k {
				return int(p)
			}
		}
		return -1
	}
	h, mask := hashID(k), uint32(len(f.idx)-1)
	for i := h >> f.idxShift(); ; i = (i + 1) & mask {
		e := f.idx[i]
		if e.pos == 0 {
			return -1
		}
		if e.hash == h && f.key(f.ring[e.pos-1]) == k {
			return int(e.pos - 1)
		}
	}
}

// index records that the entry with hash h sits at ring position p.
func (f *FIFO[V]) index(h, p uint32) {
	mask := uint32(len(f.idx) - 1)
	i := h >> f.idxShift()
	for f.idx[i].pos != 0 {
		i = (i + 1) & mask
	}
	f.idx[i] = fifoRef{hash: h, pos: p + 1}
}

// unindex drops the index entry of ring position p, closing the gap by
// backward shift: every later entry of the probe run whose home lies at or
// before the gap moves into it, so no lookup ever meets a hole.
func (f *FIFO[V]) unindex(p uint32) {
	mask, shift := uint32(len(f.idx)-1), f.idxShift()
	i := hashID(f.key(f.ring[p])) >> shift
	for f.idx[i].pos != p+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; f.idx[j].pos != 0; j = (j + 1) & mask {
		if e := f.idx[j]; (j-e.hash>>shift)&mask >= (j-i)&mask {
			f.idx[i] = e
			i = j
		}
	}
	f.idx[i] = fifoRef{}
}

// resize moves the entries, oldest first, to the front of ring (whose
// length is a power of two no smaller than Len) and rebuilds the index.
func (f *FIFO[V]) resize(ring []V) {
	mask := uint32(len(f.ring) - 1)
	for i := uint32(0); i < f.n; i++ {
		ring[i] = f.ring[(f.head+i)&mask]
	}
	f.ring, f.head = ring, 0
	if f.idx != nil {
		f.buildIdx()
	}
}

func (f *FIFO[V]) buildIdx() {
	f.idx = make([]fifoRef, 2*len(f.ring))
	mask := uint32(len(f.ring) - 1)
	for i := uint32(0); i < f.n; i++ {
		p := (f.head + i) & mask
		f.index(hashID(f.key(f.ring[p])), p)
	}
}

// Add appends v unless an element with the same key is present. It reports
// whether the element was added.
func (f *FIFO[V]) Add(v V) bool {
	k := f.key(v)
	if f.find(k) >= 0 {
		return false
	}
	if int(f.n) == len(f.ring) {
		f.resize(make([]V, max(1, 2*len(f.ring))))
	}
	p := (f.head + f.n) & uint32(len(f.ring)-1)
	f.ring[p] = v
	f.n++
	if f.idx != nil {
		f.index(hashID(k), p)
	} else if f.n > fifoSmall {
		f.buildIdx()
	}
	return true
}

// Contains reports whether an element with key k is present.
func (f *FIFO[V]) Contains(k proto.EventID) bool { return f.find(k) >= 0 }

// Get returns the element with key k.
func (f *FIFO[V]) Get(k proto.EventID) (V, bool) {
	if p := f.find(k); p >= 0 {
		return f.ring[p], true
	}
	var zero V
	return zero, false
}

// Len returns the number of elements.
func (f *FIFO[V]) Len() int { return int(f.n) }

// At returns the i-th element, oldest first.
func (f *FIFO[V]) At(i int) V { return f.ring[(f.head+uint32(i))&uint32(len(f.ring)-1)] }

// AppendItems appends the elements, oldest first, to dst.
func (f *FIFO[V]) AppendItems(dst []V) []V {
	if end := int(f.head + f.n); end > len(f.ring) {
		dst = slices.Grow(dst, int(f.n)) // one allocation at most, though the ring wraps
		return append(append(dst, f.ring[f.head:]...), f.ring[:end-len(f.ring)]...)
	}
	return append(dst, f.ring[f.head:f.head+f.n]...)
}

// TruncateOldest evicts elements oldest first until Len() <= max — the
// paper's "remove oldest element" truncation for eventIds — returning how
// many were evicted.
func (f *FIFO[V]) TruncateOldest(max int) int {
	mask, evicted := uint32(len(f.ring)-1), 0
	for ; f.n > 0 && int(f.n) > max; evicted++ {
		if f.idx != nil {
			f.unindex(f.head)
		}
		var zero V
		f.ring[f.head] = zero // an evicted event's payload is garbage from here on
		f.head = (f.head + 1) & mask
		f.n--
	}
	return evicted
}

// Grow pre-allocates room for at least n elements, so a bounded list sized
// to its configuration bound up front never reallocates on the hot path.
func (f *FIFO[V]) Grow(n int) {
	if len(f.ring) < n {
		f.resize(make([]V, ringLen(n)))
	}
}

// GrowIn is Grow with the ring drawn from a size-classed arena.
func (f *FIFO[V]) GrowIn(n int, a *pool.Arena[V]) {
	if len(f.ring) < n {
		f.resize(a.Make(ringLen(n)))
	}
}

// ringLen is the smallest power of two holding n elements.
func ringLen(n int) int { return 1 << bits.Len(uint(n-1)) }
