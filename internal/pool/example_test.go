package pool_test

import (
	"fmt"

	"repro/internal/pool"
)

// A Slab batches fixed-size record allocations: many Gets share one
// backing chunk, and Put recycles records through a free list.
func ExampleSlab() {
	type engineBlock struct{ seq uint64 }

	var s pool.Slab[engineBlock]
	a := s.Get()
	a.seq = 1
	s.Put(a)
	b := s.Get() // reused, zeroed

	st := s.Stats()
	fmt.Println(b.seq, st.Gets, st.Reuses, st.Chunks)
	// Output: 0 2 1 1
}

// An Arena hands out bounded slices from size-classed chunks: many Makes
// share one backing allocation.
func ExampleArena() {
	var a pool.Arena[uint64]

	view := a.Make(6) // len 6, cap = 6's size class
	subs := a.Make(5) // the next stripe of the same chunk

	st := a.Stats()
	fmt.Println(len(view), cap(view), len(subs), st.Gets, st.Chunks)
	// Output: 6 8 5 2 1
}
