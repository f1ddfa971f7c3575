package fault

import (
	"math"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

func TestBernoulliRate(t *testing.T) {
	t.Parallel()
	m := NewBernoulli(0.05, rng.New(1))
	const draws = 200000
	drops := 0
	for i := 0; i < draws; i++ {
		if m.Drop(1, 2, uint64(i)) {
			drops++
		}
	}
	got := float64(drops) / draws
	if math.Abs(got-0.05) > 0.005 {
		t.Errorf("drop rate = %v, want ≈0.05", got)
	}
}

func TestBernoulliZeroAndOne(t *testing.T) {
	t.Parallel()
	never := NewBernoulli(0, rng.New(1))
	always := NewBernoulli(1, rng.New(2))
	for i := 0; i < 100; i++ {
		if never.Drop(1, 2, 0) {
			t.Fatal("epsilon=0 dropped")
		}
		if !always.Drop(1, 2, 0) {
			t.Fatal("epsilon=1 delivered")
		}
	}
}

func TestCrashScheduleBasics(t *testing.T) {
	t.Parallel()
	s := NewCrashSchedule()
	if s.Crashed(1, 100) {
		t.Fatal("empty schedule crashed a process")
	}
	s.CrashAt(1, 10)
	if s.Crashed(1, 9) {
		t.Fatal("crashed before scheduled time")
	}
	if !s.Crashed(1, 10) || !s.Crashed(1, 11) {
		t.Fatal("not crashed at/after scheduled time")
	}
	// No recovery: earlier re-schedule wins, later is ignored.
	s.CrashAt(1, 5)
	if !s.Crashed(1, 5) {
		t.Fatal("earlier crash time not kept")
	}
	s.CrashAt(1, 50)
	if !s.Crashed(1, 5) {
		t.Fatal("later crash time overwrote earlier")
	}
}

func TestCrashedCountAndList(t *testing.T) {
	t.Parallel()
	s := NewCrashSchedule()
	s.CrashAt(3, 10)
	s.CrashAt(1, 20)
	if s.CrashedCount(15) != 1 {
		t.Fatalf("count at 15 = %d", s.CrashedCount(15))
	}
	if s.CrashedCount(25) != 2 || !s.Crashed(1, 25) || !s.Crashed(3, 25) || s.Crashed(2, 25) {
		t.Fatalf("at 25: count %d, crashed 1/2/3 = %v/%v/%v",
			s.CrashedCount(25), s.Crashed(1, 25), s.Crashed(2, 25), s.Crashed(3, 25))
	}
}

func TestSampleCrashes(t *testing.T) {
	t.Parallel()
	r := rng.New(7)
	procs := make([]proto.ProcessID, 100)
	for i := range procs {
		procs[i] = proto.ProcessID(i + 1)
	}
	s := NewCrashSchedule()
	crashed := s.SampleCrashes(procs, 0.1, 50, r)
	if len(crashed) != 10 {
		t.Fatalf("crashed %d processes, want 10", len(crashed))
	}
	// All crashed by the horizon.
	if s.CrashedCount(50) != 10 {
		t.Fatalf("count at horizon = %d", s.CrashedCount(50))
	}
	seen := map[proto.ProcessID]bool{}
	for _, p := range crashed {
		if seen[p] {
			t.Fatalf("duplicate crash %v", p)
		}
		seen[p] = true
	}
}

func TestSampleCrashesEdgeCases(t *testing.T) {
	t.Parallel()
	r := rng.New(7)
	s := NewCrashSchedule()
	if got := s.SampleCrashes(nil, 0.5, 10, r); got != nil {
		t.Fatalf("crash of empty population = %v", got)
	}
	if got := s.SampleCrashes([]proto.ProcessID{1, 2}, 0, 10, r); got != nil {
		t.Fatalf("tau=0 crashed %v", got)
	}
	// tau too small for one crash in a tiny population.
	if got := s.SampleCrashes([]proto.ProcessID{1, 2}, 0.1, 10, r); got != nil {
		t.Fatalf("fractional crash = %v", got)
	}
	// Zero horizon: crash at t=0.
	s2 := NewCrashSchedule()
	s2.SampleCrashes([]proto.ProcessID{1, 2, 3, 4}, 0.5, 0, r)
	if s2.CrashedCount(0) != 2 {
		t.Fatalf("count at t=0 = %d", s2.CrashedCount(0))
	}
}

func TestCrashScheduleString(t *testing.T) {
	t.Parallel()
	s := NewCrashSchedule()
	s.CrashAt(1, 1)
	if got := s.String(); got != "crashes(1 scheduled)" {
		t.Errorf("String = %q", got)
	}
}
