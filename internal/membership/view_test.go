package membership

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/proto"
	"repro/internal/rng"
)

// holds reports whether p is in v.
func holds(v *View, p proto.ProcessID) bool { return slices.Contains(v.list, p) }

func TestViewAddBasics(t *testing.T) {
	t.Parallel()
	v := NewView(1)
	if v.owner != 1 {
		t.Fatalf("Owner = %v", v.owner)
	}
	if v.Add(1) {
		t.Fatal("view accepted its owner")
	}
	if v.Add(proto.NilProcess) {
		t.Fatal("view accepted the nil process")
	}
	if !v.Add(2) || v.Add(2) {
		t.Fatal("Add/dup behaviour wrong")
	}
	if !holds(v, 2) || holds(v, 3) || v.Len() != 1 {
		t.Fatal("Contains/Len wrong")
	}
}

func TestViewRemove(t *testing.T) {
	t.Parallel()
	v := NewView(1)
	v.Add(2)
	v.Add(3)
	v.Add(4)
	if !v.Remove(3) || v.Remove(3) {
		t.Fatal("Remove behaviour wrong")
	}
	if v.Len() != 2 || holds(v, 3) {
		t.Fatal("Remove did not remove")
	}
	// Internal swap-remove must keep idx consistent.
	if !holds(v, 2) || !holds(v, 4) {
		t.Fatal("Remove corrupted other entries")
	}
	if !v.Remove(2) || !v.Remove(4) || v.Len() != 0 {
		t.Fatal("emptying failed")
	}
}

func TestViewWeights(t *testing.T) {
	t.Parallel()
	v := NewView(1)
	v.Add(2)
	if v.Weight(2) != 1 {
		t.Fatalf("initial weight = %d, want 1", v.Weight(2))
	}
	if !v.Bump(2) || v.Weight(2) != 2 {
		t.Fatal("Bump failed")
	}
	if v.Bump(9) {
		t.Fatal("Bump of absent process returned true")
	}
	if v.Weight(9) != 0 {
		t.Fatal("absent weight != 0")
	}
}

func TestViewPick(t *testing.T) {
	t.Parallel()
	r := rng.New(1)
	v := NewView(1)
	for i := uint64(2); i <= 11; i++ {
		v.Add(proto.ProcessID(i))
	}
	got := v.AppendPick(nil, 3, r)
	if len(got) != 3 {
		t.Fatalf("AppendPick(3) returned %d", len(got))
	}
	seen := map[proto.ProcessID]bool{}
	for _, p := range got {
		if seen[p] || !holds(v, p) {
			t.Fatalf("AppendPick returned invalid set %v", got)
		}
		seen[p] = true
	}
	if got := v.AppendPick(nil, 100, r); len(got) != 10 {
		t.Fatalf("AppendPick(100) returned %d, want all 10", len(got))
	}
	if got := v.AppendPick(nil, 0, r); got != nil {
		t.Fatalf("AppendPick(0) = %v", got)
	}
}

func TestViewPickEmpty(t *testing.T) {
	t.Parallel()
	r := rng.New(1)
	v := NewView(1)
	if got := v.AppendPick(nil, 3, r); got != nil {
		t.Fatalf("AppendPick on empty view = %v", got)
	}
}

func TestTruncateUniform(t *testing.T) {
	t.Parallel()
	r := rng.New(7)
	v := NewView(1)
	for i := uint64(2); i <= 21; i++ {
		v.Add(proto.ProcessID(i))
	}
	removed := v.TruncateUniform(5, nil, r)
	if v.Len() != 5 || len(removed) != 15 {
		t.Fatalf("kept %d, removed %d", v.Len(), len(removed))
	}
	for _, p := range removed {
		if holds(v, p) {
			t.Fatalf("removed %v still in view", p)
		}
	}
}

func TestTruncateKeepsPrioritary(t *testing.T) {
	t.Parallel()
	r := rng.New(7)
	keep := []proto.ProcessID{2, 3}
	for trial := 0; trial < 50; trial++ {
		v := NewView(1)
		for i := uint64(2); i <= 21; i++ {
			v.Add(proto.ProcessID(i))
		}
		v.TruncateUniform(3, keep, r)
		if !holds(v, 2) || !holds(v, 3) {
			t.Fatal("prioritary process evicted")
		}
	}
}

func TestTruncateAllKept(t *testing.T) {
	t.Parallel()
	r := rng.New(7)
	v := NewView(1)
	v.Add(2)
	v.Add(3)
	keep := []proto.ProcessID{2, 3}
	if removed := v.TruncateUniform(1, keep, r); removed != nil {
		t.Fatalf("evicted protected entries: %v", removed)
	}
	if v.Len() != 2 {
		t.Fatal("protected entries removed")
	}
}

func TestTruncateWeightedEvictsHeavy(t *testing.T) {
	t.Parallel()
	r := rng.New(9)
	v := NewView(1)
	v.Add(2)
	v.Add(3)
	v.Add(4)
	for i := 0; i < 5; i++ {
		v.Bump(3) // 3 is the best-known entry
	}
	removed := v.TruncateWeighted(2, nil, r)
	if len(removed) != 1 || removed[0] != 3 {
		t.Fatalf("removed %v, want [3]", removed)
	}
}

func TestTruncateWeightedTieBreaksRandomly(t *testing.T) {
	t.Parallel()
	r := rng.New(11)
	victims := map[proto.ProcessID]int{}
	for trial := 0; trial < 300; trial++ {
		v := NewView(1)
		v.Add(2)
		v.Add(3)
		v.Add(4)
		removed := v.TruncateWeighted(2, nil, r)
		victims[removed[0]]++
	}
	for _, p := range []proto.ProcessID{2, 3, 4} {
		if victims[p] < 50 {
			t.Errorf("process %v evicted only %d/300 times; tie-break not uniform", p, victims[p])
		}
	}
}

func TestViewNeverContainsOwnerProperty(t *testing.T) {
	t.Parallel()
	r := rng.New(13)
	if err := quick.Check(func(ops []uint16) bool {
		v := NewView(5)
		for _, op := range ops {
			p := proto.ProcessID(op % 16)
			switch op % 3 {
			case 0:
				v.Add(p)
			case 1:
				v.Remove(p)
			case 2:
				v.TruncateUniform(int(op%8), nil, r)
			}
		}
		return !holds(v, 5) && v.Len() <= 16
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestViewEntriesCopy(t *testing.T) {
	t.Parallel()
	v := NewView(1)
	v.Add(2)
	es := v.Entries()
	es[0].Weight = 99
	if v.Weight(2) != 1 {
		t.Fatal("Entries aliased internal state")
	}
	ps := v.Processes()
	ps[0] = 42
	if !holds(v, 2) {
		t.Fatal("Processes aliased internal state")
	}
}

func TestViewString(t *testing.T) {
	t.Parallel()
	v := NewView(1)
	v.Add(3)
	v.Add(2)
	if got := v.String(); got != "view(p1)[p2 p3]" {
		t.Errorf("String = %q", got)
	}
}

// TestTruncateKeepAllocFree regression-gates the keep path: protecting
// prioritary entries during truncation must not allocate — the historical
// implementation built a map per manager, the current one marks positions
// in a bitset retained on the View.
func TestTruncateKeepAllocFree(t *testing.T) {
	r := rng.New(7)
	v := NewView(1)
	v.Grow(64)
	keep := []proto.ProcessID{2, 3}
	cycle := func() {
		for i := uint64(2); i <= 40; i++ {
			v.Add(proto.ProcessID(i))
		}
		v.TruncateUniform(5, keep, r)
		for i := uint64(2); i <= 40; i++ {
			v.Add(proto.ProcessID(i))
		}
		v.TruncateWeighted(5, keep, r)
	}
	cycle() // warm the retained scratch and bitset
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("truncation with keep set cost %.1f allocs/run, want 0", allocs)
	}
	if !holds(v, 2) || !holds(v, 3) {
		t.Fatal("prioritary entries evicted")
	}
}
