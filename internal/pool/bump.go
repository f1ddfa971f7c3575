package pool

import "unsafe"

// BumpChunkBytes is a Bump's cap, and the size of the chunks it keeps past it.
const BumpChunkBytes = 32 << 10

// Bump hands out runs of T cut from chunks and takes all of them back at
// once with Reset. Below the cap it keeps one chunk: a chunk too small for a
// run is left to the runs cut from it and replaced by one that would have
// held everything cut since the reset, so a recurring load settles on one
// chunk. Past the cap it adds chunks of BumpChunkBytes and keeps them across
// resets, so it keeps what the busiest stretch between two resets needed; a
// run longer than a chunk gets a chunk of its own, which it does not keep.
// The zero value is ready to use; a Bump is not safe for concurrent use.
type Bump[T any] struct {
	chunk  []T   // runs are cut from here; len: handed out
	chunks [][]T // the fixed-size chunks, once past the cap
	next   int   // chunks[:next] have been cut from since the reset
	used   int   // handed out since the reset, runs of their own aside
}

func bumpChunk[T any]() int {
	var zero T
	return max(1, BumpChunkBytes/int(unsafe.Sizeof(zero)))
}

// Cut returns n zeroed elements with no capacity beyond them, valid until
// the next Reset.
func (s *Bump[T]) Cut(n int) []T {
	if cap(s.chunk)-len(s.chunk) < n {
		switch limit, want := bumpChunk[T](), max(s.used+n, 2*cap(s.chunk)); {
		case n > limit:
			return make([]T, n)
		case want <= limit:
			s.chunk = make([]T, 0, want)
		default:
			if s.next == len(s.chunks) {
				s.chunks = append(s.chunks, make([]T, 0, limit))
			}
			s.chunk = s.chunks[s.next]
			s.next++
		}
	}
	s.used += n
	at := len(s.chunk)
	s.chunk = s.chunk[:at+n]
	return s.chunk[at : at+n : at+n]
}

// Reset takes back every run and zeroes the chunks it keeps.
func (s *Bump[T]) Reset() {
	if len(s.chunks) == 0 {
		clear(s.chunk)
		s.chunk = s.chunk[:0]
	} else {
		for _, c := range s.chunks[:s.next] {
			clear(c[:cap(c)])
		}
		s.chunk, s.next = s.chunks[0], 1
	}
	s.used = 0
}

// Size is the number of bytes of storage the Bump keeps.
func (s *Bump[T]) Size() int {
	var zero T
	n := max(cap(s.chunk), len(s.chunks)*bumpChunk[T]())
	return n * int(unsafe.Sizeof(zero))
}
