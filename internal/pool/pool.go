// Package pool provides chunked allocators for the simulator's bulk state:
// typed slabs for fixed-size records (engine blocks) and size-classed
// arenas for the slices sized at construction (a view's entries, subs).
// The design follows trex-emu's mbuf layer: allocations are carved from
// large chunks, a slab's freed records go to a free list for reuse, and
// every pool tracks its own statistics so the memory footprint of a
// million-process experiment is observable instead of folklore. An arena
// only hands out: what it builds lives as long as the cluster, so nothing
// is ever returned to it.
//
// A Bump hands out runs taken back all at once by Reset (a decoded
// datagram, a generation of the in-flight ring) and keeps what the busiest
// stretch between resets needed, never the longest run.
//
// Pools are deliberately NOT safe for concurrent use. A concurrent
// consumer gives each worker its own pool (shard-local allocation), which
// both avoids locks and keeps chunk locality per shard — this is how the
// sharded simulator parallelizes cluster construction. The
// executor/setup benchmarks gate the result: ~0.1 heap allocations per
// process when building a million engines. Package idmap provides the
// dense indices that address the records allocated here.
package pool

import "unsafe"

// Stats counts one pool's activity. Gets - Reuses is the number of
// objects carved from fresh chunk memory; Chunks is how many backing
// allocations the Go heap actually saw, which is the figure that matters
// for setup allocation budgets.
type Stats struct {
	// Gets counts objects or slices handed out.
	Gets uint64
	// Puts counts records returned for reuse (to a Slab; an Arena takes
	// nothing back).
	Puts uint64
	// Reuses counts Gets served from a free list instead of chunk memory.
	Reuses uint64
	// Chunks counts backing-array allocations made on the Go heap.
	Chunks uint64
	// Oversize counts requests larger than the biggest size class, which
	// fall through to plain make and are never recycled.
	Oversize uint64
	// ChunkBytes approximates the bytes reserved in backing chunks.
	ChunkBytes uint64
}

// Add merges o into s (for aggregating shard-local pools).
func (s *Stats) Add(o Stats) {
	s.Gets += o.Gets
	s.Puts += o.Puts
	s.Reuses += o.Reuses
	s.Chunks += o.Chunks
	s.Oversize += o.Oversize
	s.ChunkBytes += o.ChunkBytes
}

// slabChunk is how many records a Slab reserves per backing allocation.
const slabChunk = 128

// Slab hands out pointers to zeroed T records carved from chunked backing
// arrays, with a free list for recycling. One chunk allocation serves
// slabChunk Gets, so constructing thousands of records costs O(records /
// slabChunk) heap allocations instead of O(records).
type Slab[T any] struct {
	chunk []T
	free  []*T
	stats Stats
}

// Get returns a pointer to a zeroed T.
func (s *Slab[T]) Get() *T {
	s.stats.Gets++
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		s.stats.Reuses++
		var zero T
		*p = zero
		return p
	}
	if len(s.chunk) == 0 {
		s.chunk = make([]T, slabChunk)
		s.stats.Chunks++
		var t T
		s.stats.ChunkBytes += uint64(slabChunk) * uint64(sizeOf(&t))
	}
	p := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return p
}

// Put recycles p for a future Get. The record is zeroed on reuse, not
// here, so a Put is O(1); callers must not retain p afterwards.
func (s *Slab[T]) Put(p *T) {
	if p == nil {
		return
	}
	s.stats.Puts++
	s.free = append(s.free, p)
}

// Stats returns a snapshot of the slab's counters.
func (s *Slab[T]) Stats() Stats { return s.stats }

// Arena size classes are powers of two in [minClass, maxClass]. Requests
// above maxClass fall through to plain make: they are rare and unbounded.
const (
	minClassShift = 3 // 8
	maxClassShift = 16
	numClasses    = maxClassShift - minClassShift + 1
)

// arenaChunkElems bounds one chunk's element count so big classes do not
// reserve absurd blocks: a chunk holds whole class-sized stripes.
const arenaChunkElems = 1 << 12

// Arena is a size-classed slice allocator: Make(n) returns a zeroed
// slice with len n and cap equal to n's size class, carved from chunked
// backing arrays. Slices from the same arena share chunks, so sizing
// thousands of bounded protocol buffers costs a handful of chunk
// allocations.
type Arena[T any] struct {
	chunks [numClasses][]T // the unused rest of each class's current chunk
	stats  Stats
}

// classFor maps a request to its class index, or -1 for oversize.
func classFor(n int) int {
	if n <= 0 {
		n = 1
	}
	c := 0
	size := 1 << minClassShift
	for size < n {
		size <<= 1
		c++
	}
	if c >= numClasses {
		return -1
	}
	return c
}

// Make returns a zeroed slice of length n whose capacity is n's size
// class. Oversize requests are served by plain make.
func (a *Arena[T]) Make(n int) []T {
	a.stats.Gets++
	c := classFor(n)
	if c < 0 {
		a.stats.Oversize++
		return make([]T, n)
	}
	chunk := a.chunks[c]
	classSize := 1 << (minClassShift + c)
	if len(chunk) < classSize {
		elems := max(arenaChunkElems, classSize)
		chunk = make([]T, elems)
		a.stats.Chunks++
		var t T
		a.stats.ChunkBytes += uint64(elems) * uint64(sizeOf(&t))
	}
	a.chunks[c] = chunk[classSize:]
	return chunk[:n:classSize]
}

// Stats returns a snapshot of the arena's counters.
func (a *Arena[T]) Stats() Stats { return a.stats }

// sizeOf reports T's size; it only feeds the ChunkBytes statistic.
func sizeOf[T any](t *T) uintptr { return unsafe.Sizeof(*t) }
