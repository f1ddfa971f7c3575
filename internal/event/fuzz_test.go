package event

import (
	"math/rand/v2"
	"testing"
)

// FuzzWheel holds the scheduler to the sorted reference of checkBatch over
// op lists the fuzzer writes: a Schedule at any delta inside the horizon
// (or a small one, so instants pile up) and of any kind, a pop of the
// instant Next names, or a pop of an instant at or before that one, empty
// unless it is that one. After every op Next must name the reference's earliest
// instant; at the end the drained scheduler and the reference are empty.
func FuzzWheel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 7, 0, 1, 0, 0, 7, 0, 2, 0, 0, 3, 1, 2, 3})
	for seed := uint64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewPCG(seed, 2))
		ops := make([]byte, 64+r.IntN(1024))
		for i := range ops {
			ops[i] = byte(r.IntN(256))
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() uint64 {
			if len(ops) == 0 {
				return 0
			}
			v := ops[0]
			ops = ops[1:]
			return uint64(v)
		}
		w := NewWheel()
		var ref []refTimer
		for len(ops) > 0 {
			switch op := next(); op % 4 {
			case 0, 1: // Schedule
				delta := 1 + next()%8 // a pile-up
				if op%4 == 1 {
					delta = 1 + (next()<<16|next()<<8|next())%(maxHorizon-1) // anywhere in the horizon
				}
				at, kind := w.Now()+delta, uint8(next())
				if kind >= 128 {
					kind %= 3 // few kinds, so ties at (At, Kind) happen
				}
				w.Schedule(at, kind, uint32(len(ref)))
				ref = append(ref, refTimer{at: at, seq: w.seq, kind: kind, ref: uint32(len(ref))})
			case 2: // pop the next instant
				if at, ok := w.Next(); ok {
					ref = checkBatch(t, ref, at, w.PopAt(at))
				}
			case 3: // pop an instant at or before the next one
				at := w.Now() + 1 + next()
				if first, ok := w.Next(); ok {
					at = min(at, first)
				}
				ref = checkBatch(t, ref, at, w.PopAt(at))
			}
			want := ^uint64(0)
			for _, rt := range ref {
				want = min(want, rt.at)
			}
			if first, ok := w.Next(); ok != (len(ref) > 0) || ok && first != want {
				t.Fatalf("Next = %d, %v; the reference's earliest of %d timers is at %d", first, ok, len(ref), want)
			}
		}
		for {
			at, ok := w.Next()
			if !ok {
				break
			}
			ref = checkBatch(t, ref, at, w.PopAt(at))
		}
		if len(w.heap) != 0 || len(ref) != 0 {
			t.Fatalf("drained: %d pending, %d reference timers left", len(w.heap), len(ref))
		}
	})
}

// TestWheelPopAtSkipPanics: a pop past a pending timer is a scheduler bug
// and panics rather than drop the timer.
func TestWheelPopAtSkipPanics(t *testing.T) {
	w := NewWheel()
	w.Schedule(5, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("PopAt(6) with a timer pending at 5 did not panic")
		}
	}()
	w.PopAt(6)
}
