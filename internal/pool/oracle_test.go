package pool

import (
	"math/rand/v2"
	"testing"
	"unsafe"
)

// FuzzPool holds a Slab and an Arena to a model over op lists the fuzzer
// writes (a Get, a Put of a live record or of nil, a Make of a small, a
// class-sized or an oversize slice). After every op:
//   - a record or slice just handed out is zeroed, capacity included;
//   - it shares no memory with a live record or slice, capacity included;
//   - every live record and slice still holds what was written into it;
//   - a slice has the length asked for and its size class as capacity (the
//     length itself past the largest class);
//   - each pool's Stats equal the counts the model keeps.
func FuzzPool(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 2, 0, 3, 4, 5, 6, 7, 0, 1, 0})
	for seed := uint64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewPCG(seed, 1))
		ops := make([]byte, 64+r.IntN(512))
		for i := range ops {
			ops[i] = byte(r.IntN(256))
		}
		f.Add(ops)
	}
	f.Fuzz(checkPool)
}

// record is what the Slab hands out: 32 bytes, a stamp in every word.
type record [4]uint64

// maxPoolOps bounds one input, so class-sized slices stay a few megabytes.
const maxPoolOps = 128

func checkPool(t *testing.T, ops []byte) {
	var (
		slab  Slab[record]
		arena Arena[uint32]
		recs  []*record       // live records
		stamp []uint64        // what each live record holds
		strs  [][]uint32      // live slices
		sstmp []uint32        // what each live slice holds
		free  int             // records Put and not yet reused
		sw    Stats           // the slab's model counts
		aw    Stats           // the arena's model counts
		rest  [numClasses]int // elements left in each class's chunk
		stmp  uint64          // last stamp written
		elem  = uint64(unsafe.Sizeof(uint32(0)))
		rsize = uint64(unsafe.Sizeof(record{}))
	)
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		v := ops[0]
		ops = ops[1:]
		return int(v)
	}
	for k := 0; k < maxPoolOps && len(ops) > 0; k++ {
		switch op := next(); op % 8 {
		case 0, 1: // Get
			p := slab.Get()
			sw.Gets++
			if free > 0 {
				free--
				sw.Reuses++
			} else if (sw.Gets-sw.Reuses-1)%slabChunk == 0 {
				sw.Chunks++
				sw.ChunkBytes += slabChunk * rsize
			}
			if *p != (record{}) {
				t.Fatalf("op %d: Get returned a record holding %v", k, *p)
			}
			for _, q := range recs {
				if overlaps(unsafe.Pointer(p), rsize, unsafe.Pointer(q), rsize) {
					t.Fatalf("op %d: Get returned a live record", k)
				}
			}
			stmp++
			*p = record{stmp, stmp, stmp, stmp}
			recs, stamp = append(recs, p), append(stamp, stmp)
		case 2: // Put a live record
			if len(recs) == 0 {
				continue
			}
			i := next() % len(recs)
			slab.Put(recs[i])
			sw.Puts++
			free++
			recs[i], stamp[i] = recs[len(recs)-1], stamp[len(stamp)-1]
			recs, stamp = recs[:len(recs)-1], stamp[:len(stamp)-1]
		case 3: // Put nil: counts nothing
			slab.Put(nil)
		default: // Make
			n := next() % 64 // small: up to the first few classes
			switch op % 8 {
			case 6:
				n = 1 << (minClassShift + next()%numClasses) >> (next() % 2) // a class or half one
			case 7:
				n = 1<<maxClassShift + 1 + next() // oversize
			}
			s := arena.Make(n)
			aw.Gets++
			want := n
			if c := classFor(n); c < 0 {
				aw.Oversize++
			} else {
				want = 1 << (minClassShift + c)
				if rest[c] < want {
					rest[c] = max(arenaChunkElems, want)
					aw.Chunks++
					aw.ChunkBytes += uint64(rest[c]) * elem
				}
				rest[c] -= want
			}
			if len(s) != n || cap(s) != want {
				t.Fatalf("op %d: Make(%d) has len %d cap %d, want cap %d", k, n, len(s), cap(s), want)
			}
			for i, v := range s[:cap(s)] {
				if v != 0 {
					t.Fatalf("op %d: Make(%d)[%d] = %d, not zeroed", k, n, i, v)
				}
			}
			for _, o := range strs {
				if cap(s) > 0 && cap(o) > 0 && overlaps(unsafe.Pointer(unsafe.SliceData(s)), uint64(cap(s))*elem,
					unsafe.Pointer(unsafe.SliceData(o)), uint64(cap(o))*elem) {
					t.Fatalf("op %d: Make(%d) shares memory with a live slice of cap %d", k, n, cap(o))
				}
			}
			stmp++
			for i := range s {
				s[i] = uint32(stmp)
			}
			strs, sstmp = append(strs, s), append(sstmp, uint32(stmp))
		}
		for i, p := range recs {
			if *p != (record{stamp[i], stamp[i], stamp[i], stamp[i]}) {
				t.Fatalf("op %d: live record %d holds %v, want stamp %d", k, i, *p, stamp[i])
			}
		}
		for i, s := range strs {
			if len(s) > 0 && (s[0] != sstmp[i] || s[len(s)-1] != sstmp[i]) {
				t.Fatalf("op %d: live slice %d (len %d) holds %d ... %d, want stamp %d", k, i, len(s), s[0], s[len(s)-1], sstmp[i])
			}
		}
		if got := slab.Stats(); got != sw {
			t.Fatalf("op %d: slab stats %+v, model %+v", k, got, sw)
		}
		if got := arena.Stats(); got != aw {
			t.Fatalf("op %d: arena stats %+v, model %+v", k, got, aw)
		}
	}
}

// overlaps reports whether the byte ranges [a, a+an) and [b, b+bn) meet.
func overlaps(a unsafe.Pointer, an uint64, b unsafe.Pointer, bn uint64) bool {
	a0, b0 := uint64(uintptr(a)), uint64(uintptr(b))
	return a0 < b0+bn && b0 < a0+an
}
