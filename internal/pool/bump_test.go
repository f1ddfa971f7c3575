package pool

import (
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// FuzzBump holds a Bump to fresh slices: every run it cuts is compared with
// a reference copy the test keeps, over op lists the fuzzer writes (a cut
// of a small, a chunk-sized or an oversize run, or a reset). After every op:
//   - a new run has the length asked for, no capacity beyond it, and only
//     zero elements, and it overlaps no run cut since the reset;
//   - every run cut since the reset still holds what was written into it,
//     across every chunk added or replaced after it;
//   - the Bump keeps at most what the busiest stretch between two resets
//     needed: with c a chunk's length, h the high-water mark of elements
//     cut into chunks between resets and r the longest such run,
//     1 + min(2⌊h/(c+1)⌋, ⌊h/(c-r+1)⌋) chunks. A chunk is left behind only
//     when a run does not fit in it, so it holds more than c - r, and it
//     and the chunk the run went to hold more than c;
//   - after a reset it keeps nothing of a run longer than a chunk.
func FuzzBump(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 2, 3, 15, 6, 6, 6, 6, 6, 6, 6, 6, 7, 0, 0})
	for seed := uint64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		ops := make([]byte, 64+r.IntN(1024))
		for i := range ops {
			ops[i] = byte(r.IntN(256))
		}
		f.Add(ops)
	}
	f.Fuzz(checkBump)
}

// elem is 64 bytes, so a chunk holds 512 of them and the op lists reach
// past the cap and past a chunk's length quickly.
type elem [16]uint32

func checkBump(t *testing.T, ops []byte) {
	var b Bump[elem]
	limit := BumpChunkBytes / int(unsafe.Sizeof(elem{}))
	var runs, want [][]elem // cut since the reset, and what they must hold
	var own [][]elem        // runs longer than a chunk, since the reset
	used, hwm, longest := 0, 0, 0
	stamp := uint32(0)
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		v := ops[0]
		ops = ops[1:]
		return int(v)
	}
	for len(ops) > 0 {
		op := next()
		if op%8 == 7 {
			b.Reset()
			kept := [][]elem{b.chunk}
			if b.past != nil {
				kept = append(kept, b.past.chunks...)
			}
			for _, r := range own {
				for _, c := range kept {
					if overlap(r, c[:cap(c)]) {
						t.Fatalf("a run of %d, longer than a chunk, is still kept after the reset", len(r))
					}
				}
			}
			runs, want, own, used = runs[:0], want[:0], own[:0], 0
			continue
		}
		n := op % 8 // a small run
		switch op % 8 {
		case 5:
			n = next() * limit / 256 // up to a chunk
		case 6:
			n = limit + 1 + next() // longer than a chunk
		}
		r := b.Cut(n)
		if len(r) != n || cap(r) != n {
			t.Fatalf("Cut(%d) returned len %d cap %d", n, len(r), cap(r))
		}
		for i, e := range r {
			if e != (elem{}) {
				t.Fatalf("Cut(%d): element %d not zeroed: %v", n, i, e)
			}
		}
		for _, o := range runs {
			if overlap(r, o) {
				t.Fatalf("Cut(%d) overlaps a run of %d cut since the reset", n, len(o))
			}
		}
		for i := range r {
			stamp++
			r[i][0], r[i][15] = stamp, ^stamp
		}
		runs, want = append(runs, r), append(want, slices.Clone(r))
		if n > limit {
			own = append(own, r)
		} else {
			used += n
			hwm, longest = max(hwm, used), max(longest, n)
		}
		for i := range runs {
			if !slices.Equal(runs[i], want[i]) {
				t.Fatalf("run %d of %d lost its contents after a Cut(%d)", i, len(runs), n)
			}
		}
		if bound := (1 + min(2*(hwm/(limit+1)), hwm/(limit-longest+1))) * BumpChunkBytes; b.Size() > bound {
			t.Fatalf("the Bump keeps %d B, past %d B: high-water mark %d elements, longest run %d", b.Size(), bound, hwm, longest)
		}
	}
}

// overlap reports whether two runs share an element.
func overlap(a, b []elem) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sz := unsafe.Sizeof(elem{})
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b))*sz && b0 < a0+uintptr(len(a))*sz
}
