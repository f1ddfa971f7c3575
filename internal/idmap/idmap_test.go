package idmap

import (
	"math/rand"
	"testing"

	"repro/internal/proto"
)

func TestTableBasic(t *testing.T) {
	var tb Table
	a := tb.Add(proto.ProcessID(5))
	b := tb.Add(proto.ProcessID(9))
	if a == b {
		t.Fatalf("distinct ids share index %d", a)
	}
	if got := tb.Add(proto.ProcessID(5)); got != a {
		t.Fatalf("re-Add(5) = %d, want %d", got, a)
	}
	if ix, ok := tb.Lookup(proto.ProcessID(9)); !ok || ix != b {
		t.Fatalf("Lookup(9) = %d,%v, want %d,true", ix, ok, b)
	}
	if _, ok := tb.Lookup(proto.ProcessID(7)); ok {
		t.Fatal("Lookup(7) found an unassigned id")
	}
	if id := tb.ID(a); id != proto.ProcessID(5) {
		t.Fatalf("ID(%d) = %d, want 5", a, id)
	}
	if tb.Len() != 2 || len(tb.rev) != 2 {
		t.Fatalf("Len,high-water = %d,%d, want 2,2", tb.Len(), len(tb.rev))
	}
	if !tb.Release(proto.ProcessID(5)) {
		t.Fatal("Release(5) = false")
	}
	if tb.Release(proto.ProcessID(5)) {
		t.Fatal("double Release(5) = true")
	}
	if _, ok := tb.Lookup(proto.ProcessID(5)); ok {
		t.Fatal("Lookup(5) found a released id")
	}
	if id := tb.ID(a); id != proto.NilProcess {
		t.Fatalf("ID of released slot = %d, want NilProcess", id)
	}
	// The freed index is recycled by the next Add.
	c := tb.Add(proto.ProcessID(11))
	if c != a {
		t.Fatalf("Add after Release = %d, want recycled %d", c, a)
	}
	if len(tb.rev) != 2 {
		t.Fatalf("index space grew to %d despite recycling", len(tb.rev))
	}
}

func TestTableAddNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(NilProcess) did not panic")
		}
	}()
	var tb Table
	tb.Add(proto.NilProcess)
}

// TestTableMaxID: 2³²−1 is a live id that resolves to itself.
func TestTableMaxID(t *testing.T) {
	const maxID = ^proto.ProcessID(0)
	var tb Table
	ix := tb.Add(maxID)
	if got := tb.ID(ix); got != maxID {
		t.Fatalf("ID of a live 2³²−1 = %v, want %v", got, maxID)
	}
	if got, ok := tb.Lookup(maxID); !ok || got != ix {
		t.Fatalf("Lookup(2³²−1) = %d, %v, want %d, true", got, ok, ix)
	}
	if !tb.Release(maxID) || tb.ID(ix) != proto.NilProcess {
		t.Fatal("a released 2³²−1 still resolves")
	}
}

func TestTableSparseFallback(t *testing.T) {
	var tb Table
	big := proto.ProcessID(denseBound) + 17
	ix := tb.Add(big)
	if got, ok := tb.Lookup(big); !ok || got != ix {
		t.Fatalf("Lookup(big) = %d,%v, want %d,true", got, ok, ix)
	}
	if id := tb.ID(ix); id != big {
		t.Fatalf("ID = %d, want %d", id, big)
	}
	if !tb.Release(big) {
		t.Fatal("Release(big) = false")
	}
	if _, ok := tb.Lookup(big); ok {
		t.Fatal("Lookup(big) found a released id")
	}
}

// TestTableChurnBounded is the churn property: under sustained
// subscribe/unsubscribe/crash cycles the index space must stay bounded by
// the peak concurrent population, and no recycled index may alias a live
// process.
func TestTableChurnBounded(t *testing.T) {
	var tb Table
	rng := rand.New(rand.NewSource(7))
	live := map[proto.ProcessID]Index{}
	peak := 0
	next := proto.ProcessID(1)
	for step := 0; step < 200000; step++ {
		if len(live) == 0 || (len(live) < 64 && rng.Intn(2) == 0) {
			id := next
			next++
			ix := tb.Add(id)
			for oid, oix := range live {
				if oix == ix {
					t.Fatalf("step %d: index %d of new id %d aliases live id %d", step, ix, id, oid)
				}
			}
			live[id] = ix
		} else {
			// Remove an arbitrary live id (leave or crash — identical to
			// the table).
			var id proto.ProcessID
			for id = range live {
				break
			}
			if !tb.Release(id) {
				t.Fatalf("step %d: Release(%d) = false for live id", step, id)
			}
			delete(live, id)
		}
		if len(live) > peak {
			peak = len(live)
		}
		if tb.Len() != len(live) {
			t.Fatalf("step %d: Len = %d, want %d", step, tb.Len(), len(live))
		}
	}
	if len(tb.rev) > peak {
		t.Fatalf("index space grew to %d under churn, peak live was %d", len(tb.rev), peak)
	}
	if int(next) < 10*len(tb.rev) {
		t.Fatalf("test churned too few ids (%d) to exercise recycling against cap %d", next, len(tb.rev))
	}
	// Every live id still resolves both ways.
	for id, ix := range live {
		if got, ok := tb.Lookup(id); !ok || got != ix {
			t.Fatalf("post-churn Lookup(%d) = %d,%v, want %d,true", id, got, ok, ix)
		}
		if got := tb.ID(ix); got != id {
			t.Fatalf("post-churn ID(%d) = %d, want %d", ix, got, id)
		}
	}
}

func TestTableReserveSingleShot(t *testing.T) {
	var tb Table
	n := 4096
	tb.Reserve(proto.ProcessID(n), n)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 1; i <= n; i++ {
			tb.Add(proto.ProcessID(i))
		}
		for i := 1; i <= n; i++ {
			tb.Release(proto.ProcessID(i))
		}
	})
	// The free list is the only append target and settles after the first
	// run; allow it one growth round.
	if allocs > 4 {
		t.Fatalf("reserved bulk add/release cost %.0f allocs, want ~0", allocs)
	}
}

func TestBitset(t *testing.T) {
	var b Bitset
	for _, i := range []int{0, 1, 63, 64, 65, 200} {
		if b.Get(i) {
			t.Fatalf("empty set has bit %d", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("Set(%d) not visible", i)
		}
	}
	b.Unset(64)
	if b.Get(64) || !b.Get(63) || !b.Get(65) {
		t.Fatal("Unset(64) clobbered neighbours or failed")
	}
	// Move semantics: destination takes source's value, source clears.
	b.Move(63, 64)
	if b.Get(63) || !b.Get(64) {
		t.Fatal("Move(63,64) wrong")
	}
	b.Move(10, 64) // bit 10 unset → 64 must clear
	if b.Get(64) {
		t.Fatal("Move from unset bit left destination set")
	}
	b.Clear()
	for _, i := range []int{0, 1, 63, 64, 65, 200} {
		if b.Get(i) {
			t.Fatalf("Clear left bit %d", i)
		}
	}
	// Retained capacity: steady Set/Clear cycles are allocation-free.
	b.Grow(512)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 512; i += 7 {
			b.Set(i)
		}
		b.Clear()
	})
	if allocs != 0 {
		t.Fatalf("steady bitset cycle cost %.0f allocs, want 0", allocs)
	}
}
