package event

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

// maxHorizon is how far past Now a timer may be scheduled (see slotBits).
const maxHorizon = 1 << (slotBits * numLevels)

// refTimer mirrors Timer for the oracle.
type refTimer struct {
	at, seq uint64
	kind    uint8
	ref     uint32
}

// TestWheelOracle checks the wheel's pop order against a sort by
// (at, kind, seq) over randomized schedules spanning all three levels,
// interleaving pops with fresh schedules so cascades happen mid-flight.
func TestWheelOracle(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		w := NewWheel()
		var ref []refTimer
		schedule := func(count int) {
			for i := 0; i < count; i++ {
				var delta uint64
				switch r.Intn(4) {
				case 0:
					delta = 1 + uint64(r.Intn(255)) // level 0
				case 1:
					delta = 256 + uint64(r.Intn(65536-256)) // level 1
				case 2:
					delta = 65536 + uint64(r.Intn(1<<22)) // level 2
				case 3:
					delta = 1 + uint64(r.Intn(8)) // same-instant pileups
				}
				at := w.Now() + delta
				kind := uint8(r.Intn(3))
				w.Schedule(at, kind, uint32(i))
				ref = append(ref, refTimer{at: at, seq: w.seq, kind: kind, ref: uint32(i)})
			}
		}
		schedule(200)
		// Pop roughly half the pending instants, rescheduling more as we
		// go so entries cascade across boundaries while lists are live.
		for pops := 0; pops < 50; pops++ {
			at, ok := w.Next()
			if !ok {
				break
			}
			got := w.PopAt(at)
			ref = checkBatch(t, ref, at, got)
			if pops%10 == 0 {
				schedule(20)
			}
		}
		for {
			at, ok := w.Next()
			if !ok {
				break
			}
			ref = checkBatch(t, ref, at, w.PopAt(at))
		}
		if w.count != 0 {
			t.Fatalf("trial %d: drained wheel still reports %d pending", trial, w.count)
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: %d reference timers never popped", trial, len(ref))
		}
	}
}

// checkBatch asserts got is exactly the reference's due-at-at prefix in
// (kind, seq) order and removes it from the reference.
func checkBatch(t *testing.T, ref []refTimer, at uint64, got []Timer) []refTimer {
	t.Helper()
	var due []refTimer
	rest := ref[:0]
	for _, rt := range ref {
		if rt.at == at {
			due = append(due, rt)
		} else {
			if rt.at < at {
				t.Fatalf("reference timer at %d skipped by pop at %d", rt.at, at)
			}
			rest = append(rest, rt)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].kind != due[j].kind {
			return due[i].kind < due[j].kind
		}
		return due[i].seq < due[j].seq
	})
	if len(due) != len(got) {
		t.Fatalf("pop at %d: got %d timers, reference has %d", at, len(got), len(due))
	}
	for i := range got {
		g, want := got[i], due[i]
		if g.At != want.at || g.Seq != want.seq || g.Kind != want.kind || g.Ref != want.ref {
			t.Fatalf("pop at %d position %d: got %+v, want %+v", at, i, g, want)
		}
	}
	return rest
}

// TestWheelCascadeOrder pins the canonical tie order across a cascade: an
// entry scheduled early for instant T lands in level 1 and cascades, while
// a later-scheduled entry for T inserts directly into level 0 — the pop
// must still come out in schedule (seq) order, not wheel-internal order.
func TestWheelCascadeOrder(t *testing.T) {
	w := NewWheel()
	const target = 700         // level 1 relative to now=0
	w.Schedule(target, 1, 100) // cascades: scheduled first
	w.Schedule(256, 0, 0)      // advances now across the boundary
	if at, ok := w.Next(); !ok || at != 256 {
		t.Fatalf("Next = %d,%v want 256", at, ok)
	}
	w.PopAt(256)
	w.Schedule(target, 1, 200) // direct level-0 insert: scheduled second
	w.Schedule(target, 0, 300) // lower kind fires first despite later seq
	if at, ok := w.Next(); !ok || at != target {
		t.Fatalf("Next = %d,%v want %d", at, ok, target)
	}
	got := w.PopAt(target)
	if len(got) != 3 {
		t.Fatalf("got %d timers, want 3", len(got))
	}
	if got[0].Ref != 300 || got[1].Ref != 100 || got[2].Ref != 200 {
		t.Fatalf("pop order refs = %d,%d,%d want 300,100,200", got[0].Ref, got[1].Ref, got[2].Ref)
	}
}

// TestWheelRotationWrap pins the top-level wrap: once now sits in the last
// slot of a 2^24 rotation, a timer scheduled within maxHorizon lands in a
// level-2 slot at or below the current index — the next rotation — and
// Next must find it there instead of panicking with pending timers.
func TestWheelRotationWrap(t *testing.T) {
	w := NewWheel()
	w.Schedule(maxHorizon-1, 0, 1) // park now on the rotation's last instant
	at, ok := w.Next()
	if !ok || at != maxHorizon-1 {
		t.Fatalf("Next = %d,%v want %d", at, ok, uint64(maxHorizon-1))
	}
	w.PopAt(at)
	want := w.Now() + 2 // first instant past the boundary: wrapped slot 0
	w.Schedule(want, 0, 2)
	if at, ok := w.Next(); !ok || at != want {
		t.Fatalf("Next across rotation = %d,%v want %d", at, ok, want)
	}
	got := w.PopAt(want)
	if len(got) != 1 || got[0].Ref != 2 {
		t.Fatalf("pop across rotation = %+v, want one timer with ref 2", got)
	}
	if w.count != 0 {
		t.Fatalf("wheel still reports %d pending", w.count)
	}
}

// TestWheelOracleAcrossRotations reruns the randomized oracle with now
// parked just below a top-level rotation boundary and deltas spanning the
// full horizon, so schedules and cascades straddle the wrap while lists
// are live.
func TestWheelOracleAcrossRotations(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		w := NewWheel()
		// Walk now to just below the (trial+1)-th rotation boundary.
		start := uint64(trial+1)*maxHorizon - uint64(1+r.Intn(1<<18))
		// Step by a whole window less than the horizon: place admits at most
		// 255 level-2 windows ahead, so maxHorizon-1 overshoots when now sits
		// high inside its window.
		for w.Now() < start {
			next := min(start, w.Now()+maxHorizon-65536)
			w.Schedule(next, 0, 0)
			w.PopAt(next)
		}
		var ref []refTimer
		schedule := func(count int) {
			for i := 0; i < count; i++ {
				var delta uint64
				switch r.Intn(4) {
				case 0:
					delta = 1 + uint64(r.Intn(255))
				case 1:
					delta = 256 + uint64(r.Intn(65536-256))
				case 2:
					delta = 65536 + uint64(r.Intn(maxHorizon-2*65536)) // up to the wrap
				case 3:
					delta = 1 + uint64(r.Intn(8))
				}
				at := w.Now() + delta
				kind := uint8(r.Intn(3))
				w.Schedule(at, kind, uint32(i))
				ref = append(ref, refTimer{at: at, seq: w.seq, kind: kind, ref: uint32(i)})
			}
		}
		schedule(100)
		for pops := 0; pops < 30; pops++ {
			at, ok := w.Next()
			if !ok {
				break
			}
			ref = checkBatch(t, ref, at, w.PopAt(at))
			if pops%10 == 0 {
				schedule(15)
			}
		}
		for {
			at, ok := w.Next()
			if !ok {
				break
			}
			ref = checkBatch(t, ref, at, w.PopAt(at))
		}
		if w.count != 0 || len(ref) != 0 {
			t.Fatalf("trial %d: %d pending, %d reference timers left", trial, w.count, len(ref))
		}
	}
}

func TestWheelScheduleGuards(t *testing.T) {
	w := NewWheel()
	w.PopAt(10)
	for _, at := range []uint64{0, 9, 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Schedule(%d) with now=10 did not panic", at)
				}
			}()
			w.Schedule(at, 0, 0)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Schedule beyond maxHorizon did not panic")
			}
		}()
		w.Schedule(10+maxHorizon, 0, 0)
	}()
}

// TestWheelSteadyAllocs drives a steady schedule/pop cycle — the shape of
// a simulated period with rescheduling ticks and arrivals — and requires
// the wheel itself to stay off the allocator once warm.
func TestWheelSteadyAllocs(t *testing.T) {
	w := NewWheel()
	const n = 64
	for i := 0; i < n; i++ {
		w.Schedule(w.Now()+100, 0, uint32(i))
	}
	step := func() {
		at, ok := w.Next()
		if !ok {
			t.Fatal("empty wheel mid-test")
		}
		for _, tm := range w.PopAt(at) {
			w.Schedule(at+100+uint64(tm.Ref%7), tm.Kind, tm.Ref)
		}
	}
	for i := 0; i < 1000; i++ { // warm: grows arena and due scratch
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("steady wheel step allocates %v/op, want 0", avg)
	}
}
