package buffer

import (
	"slices"

	"repro/internal/proto"
)

// fifoSmall is the length up to which a FIFO keeps no index: membership is
// a scan over a handful of ring entries, so the near-empty buffers of a
// large, mostly idle system never pay for a table.
const fifoSmall = 8

// FIFO is an insertion-ordered, duplicate-free list of values keyed by
// event identifier, with oldest-first eviction — the substrate of pbcast's
// message store and of IDBuffer. The values sit in a ring, so evicting the oldest is a head
// increment, and past fifoSmall entries an open-addressed index maps a key
// to its ring position, so membership and lookup never scan. A ring
// position is stable for the life of its entry.
//
// Ring and index take any length, so AddBounded can stop a ring at its bound.
//
// FIFO is not safe for concurrent use.
type FIFO[V any] struct {
	key  func(V) proto.EventID
	ring []V       // entry i, oldest first, is ring[pos(i)]
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
	return uint32((uint64(id.Origin)*0x9e3779b97f4a7c15 ^ uint64(id.Seq)*0xc2b2ae3d27d4eb4f) >> 32)
}

// pos returns the ring position of entry i <= len(ring), oldest first.
func (f *FIFO[V]) pos(i uint32) uint32 {
	p := f.head + i
	if l := uint32(len(f.ring)); p >= l {
		p -= l
	}
	return p
}

// idxHome scales a hash from [0, 2^32) to its home position in the index.
func (f *FIFO[V]) idxHome(h uint32) uint32 {
	return uint32(uint64(h) * uint64(len(f.idx)) >> 32)
}

// next returns the index position after i.
func (f *FIFO[V]) next(i uint32) uint32 {
	if i++; i == uint32(len(f.idx)) {
		return 0
	}
	return i
}

// find returns the ring position of the entry with key k and hash h, or -1
// and, given an index, the empty entry ending k's probe run: where k's goes.
func (f *FIFO[V]) find(k proto.EventID, h uint32) (held int, at uint32) {
	if f.idx == nil {
		for i := uint32(0); i < f.n; i++ {
			if p := f.pos(i); f.key(f.ring[p]) == k {
				return int(p), 0
			}
		}
		return -1, 0
	}
	for i := f.idxHome(h); ; i = f.next(i) {
		e := f.idx[i]
		if e.pos == 0 {
			return -1, i
		}
		if e.hash == h && f.key(f.ring[e.pos-1]) == k {
			return int(e.pos - 1), i
		}
	}
}

// unindex drops the index entry of ring position p, closing the gap by
// backward shift: every later entry of the probe run whose home lies at or
// before the gap moves into it, so no lookup ever meets a hole.
func (f *FIFO[V]) unindex(p uint32) {
	gap := f.idxHome(hashID(f.key(f.ring[p])))
	for f.idx[gap].pos != p+1 {
		gap = f.next(gap)
	}
	for j := f.next(gap); f.idx[j].pos != 0; j = f.next(j) {
		// Distances back from j to e's home and to the gap: uint32 wraps at
		// 2^32, not at len(idx), but compares positions below it alike.
		if e := f.idx[j]; j-f.idxHome(e.hash) >= j-gap {
			f.idx[gap] = e
			gap = j
		}
	}
	f.idx[gap] = fifoRef{}
}

// resize moves the entries, oldest first, to the front of ring (no shorter
// than Len) and rebuilds the index.
func (f *FIFO[V]) resize(ring []V) {
	for i := uint32(0); i < f.n; i++ {
		ring[i] = f.ring[f.pos(i)]
	}
	f.ring, f.head = ring, 0
	if f.idx != nil {
		f.buildIdx()
	}
}

func (f *FIFO[V]) buildIdx() {
	f.idx = make([]fifoRef, 2*len(f.ring))
	for i := uint32(0); i < f.n; i++ {
		p := f.pos(i)
		k := f.key(f.ring[p])
		_, at := f.find(k, hashID(k))
		f.idx[at] = fifoRef{hash: hashID(k), pos: p + 1}
	}
}

// Add appends v unless an element with the same key is present. It reports
// whether the element was added.
func (f *FIFO[V]) Add(v V) bool { return f.AddBounded(v, 0) }

// AddBounded is Add for a caller that truncates to under bound before it
// adds again: the ring stops growing at bound slots (see grown).
func (f *FIFO[V]) AddBounded(v V, bound int) bool {
	k := f.key(v)
	h := hashID(k)
	held, at := f.find(k, h)
	if held >= 0 {
		return false
	}
	if int(f.n) == len(f.ring) {
		f.resize(make([]V, grown(len(f.ring), bound)))
		_, at = f.find(k, h) // the index was rebuilt
	}
	p := f.pos(f.n)
	f.ring[p] = v
	f.n++
	if f.idx != nil {
		f.idx[at] = fifoRef{hash: h, pos: p + 1}
	} else if f.n > fifoSmall {
		f.buildIdx()
	}
	return true
}

// Contains reports whether an element with key k is present.
func (f *FIFO[V]) Contains(k proto.EventID) bool {
	p, _ := f.find(k, hashID(k))
	return p >= 0
}

// Get returns the element with key k.
func (f *FIFO[V]) Get(k proto.EventID) (V, bool) {
	if p, _ := f.find(k, hashID(k)); p >= 0 {
		return f.ring[p], true
	}
	var zero V
	return zero, false
}

// Len returns the number of elements.
func (f *FIFO[V]) Len() int { return int(f.n) }

// At returns the i-th element, oldest first.
func (f *FIFO[V]) At(i int) V { return f.ring[f.pos(uint32(i))] }

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
func (f *FIFO[V]) TruncateOldest(max int) (evicted int) {
	for ; f.n > 0 && int(f.n) > max; evicted++ {
		if f.idx != nil {
			f.unindex(f.head)
		}
		var zero V
		f.ring[f.head] = zero // what an evicted value points to is garbage from here on
		f.head = f.pos(1)
		f.n--
	}
	return evicted
}

// Grow pre-allocates room for at least n elements, so a bounded list sized
// to its configuration bound up front never reallocates on the hot path.
func (f *FIFO[V]) Grow(n int) {
	if len(f.ring) < n {
		f.resize(make([]V, n))
	}
}
