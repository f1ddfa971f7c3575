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
	chunk []T            // runs are cut from here; len: handed out
	used  int            // handed out since the reset, runs of their own aside
	past  *bumpChunks[T] // the fixed-size chunks, once past the cap
}

// bumpChunks holds a Bump's fixed-size chunks once it is past the cap. It
// sits behind a pointer so that a Bump that stays below the cap — one of an
// engine's private emission arena, say — is 40 bytes rather than 64.
type bumpChunks[T any] struct {
	chunks [][]T
	next   int // chunks[:next] have been cut from since the reset
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
			if s.past == nil {
				s.past = new(bumpChunks[T])
			}
			p := s.past
			if p.next == len(p.chunks) {
				p.chunks = append(p.chunks, make([]T, 0, limit))
			}
			s.chunk = p.chunks[p.next]
			p.next++
		}
	}
	s.used += n
	at := len(s.chunk)
	s.chunk = s.chunk[:at+n]
	return s.chunk[at : at+n : at+n]
}

// Reset takes back every run and zeroes the chunks it keeps.
func (s *Bump[T]) Reset() {
	if s.past == nil {
		clear(s.chunk)
		s.chunk = s.chunk[:0]
	} else {
		p := s.past
		for _, c := range p.chunks[:p.next] {
			clear(c[:cap(c)])
		}
		s.chunk, p.next = p.chunks[0], 1
	}
	s.used = 0
}

// Size is the number of bytes of storage the Bump keeps.
func (s *Bump[T]) Size() int {
	var zero T
	n := cap(s.chunk)
	if s.past != nil {
		n = len(s.past.chunks) * bumpChunk[T]()
	}
	return n * int(unsafe.Sizeof(zero))
}
