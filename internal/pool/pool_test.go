package pool

import "testing"

func TestSlabChunking(t *testing.T) {
	var s Slab[[4]uint64]
	seen := map[*[4]uint64]bool{}
	for i := 0; i < 3*slabChunk; i++ {
		p := s.Get()
		if seen[p] {
			t.Fatalf("Get %d returned a live pointer twice", i)
		}
		seen[p] = true
		if *p != ([4]uint64{}) {
			t.Fatalf("Get %d not zeroed", i)
		}
		p[0] = uint64(i) + 1
	}
	st := s.Stats()
	if st.Gets != 3*slabChunk || st.Chunks != 3 || st.Reuses != 0 {
		t.Fatalf("stats after fresh gets: %+v", st)
	}
}

func TestSlabReuseZeroes(t *testing.T) {
	var s Slab[[4]uint64]
	p := s.Get()
	p[2] = 99
	s.Put(p)
	q := s.Get()
	if q != p {
		t.Fatal("free list not LIFO-reused")
	}
	if *q != ([4]uint64{}) {
		t.Fatalf("reused record not zeroed: %v", *q)
	}
	st := s.Stats()
	if st.Puts != 1 || st.Reuses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {8, 0}, {9, 1}, {16, 1}, {17, 2},
		{1 << 16, numClasses - 1}, {1<<16 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Fatalf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestArenaMakeShapes(t *testing.T) {
	var a Arena[uint64]
	for _, n := range []int{1, 5, 8, 9, 60, 100, 4096} {
		s := a.Make(n)
		if len(s) != n {
			t.Fatalf("Make(%d) len %d", n, len(s))
		}
		want := 8
		for want < n {
			want <<= 1
		}
		if cap(s) != want {
			t.Fatalf("Make(%d) cap %d, want class %d", n, cap(s), want)
		}
		for i, v := range s {
			if v != 0 {
				t.Fatalf("Make(%d)[%d] = %d, not zeroed", n, i, v)
			}
		}
	}
	// Oversize falls through to plain make with exact cap.
	big := a.Make(1<<16 + 1)
	if len(big) != 1<<16+1 || cap(big) != 1<<16+1 {
		t.Fatalf("oversize shape len=%d cap=%d", len(big), cap(big))
	}
	if a.Stats().Oversize != 1 {
		t.Fatalf("oversize not counted: %+v", a.Stats())
	}
}

func TestArenaChunkAmortization(t *testing.T) {
	var a Arena[uint64]
	// 4096 chunk elems / 64-class = 64 slices per chunk.
	for i := 0; i < 256; i++ {
		s := a.Make(60)
		s[0] = uint64(i)
	}
	if got := a.Stats().Chunks; got != 4 {
		t.Fatalf("256 class-64 makes used %d chunks, want 4", got)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Gets: 1, Puts: 2, Reuses: 3, Chunks: 4, Oversize: 5, ChunkBytes: 6}
	b := Stats{Gets: 10, Puts: 20, Reuses: 30, Chunks: 40, Oversize: 50, ChunkBytes: 60}
	a.Add(b)
	want := Stats{Gets: 11, Puts: 22, Reuses: 33, Chunks: 44, Oversize: 55, ChunkBytes: 66}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}
