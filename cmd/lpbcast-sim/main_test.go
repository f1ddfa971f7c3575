package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/sim"
)

func TestRunQuickFigure(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-fig", "5b", "-quick"}); err != nil {
		t.Fatalf("run(-fig 5b -quick): %v", err)
	}
}

func TestRunQuickFigureParallel(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-fig", "5b", "-quick", "-workers", "4"}); err != nil {
		t.Fatalf("run(-fig 5b -quick -workers 4): %v", err)
	}
}

// TestRunProfileFlags: -cpuprofile and -memprofile (internal/prof, shared
// with lpbcast-bench) leave a non-empty pprof file each, and a path that
// cannot be created is an error, not a silently unprofiled run.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := run([]string{"-fig", "5b", "-quick", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatalf("run with profiles: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (err %v)", filepath.Base(path), err)
		}
	}
	if err := run([]string{"-fig", "5b", "-quick", "-cpuprofile", filepath.Join(dir, "no", "such", "dir")}); err == nil {
		t.Error("uncreatable -cpuprofile path: want an error")
	}
}

func TestRunMatrix(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-matrix", "n=60,125;f=3;rounds=6;repeats=1", "-workers", "2"}); err != nil {
		t.Fatalf("run(-matrix): %v", err)
	}
}

func TestRunMatrixTopics(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-matrix", "n=80;f=3;eps=0.01;topics=8;rounds=10;repeats=1"}); err != nil {
		t.Fatalf("run(-matrix topics): %v", err)
	}
}

func TestParseMatrixSpec(t *testing.T) {
	t.Parallel()
	spec, err := parseMatrixSpec("n=125,250; f=3,4; eps=0.05; tau=0.01; topics=1,16; proto=lpbcast,pbcast/total; rounds=8; repeats=2; seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := sim.MatrixSpec{
		Ns:        []int{125, 250},
		Fanouts:   []int{3, 4},
		Epsilons:  []float64{0.05},
		Taus:      []float64{0.01},
		Topics:    []int{1, 16},
		Protocols: []sim.Protocol{sim.Lpbcast, sim.PbcastTotal},
		Rounds:    8,
		Repeats:   2,
		Seed:      7,
	}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("parsed %+v, want %+v", spec, want)
	}
}

func TestParseMatrixSpecErrors(t *testing.T) {
	t.Parallel()
	for _, bad := range []string{
		"",                 // n is required
		"f=3",              // n is required
		"n=abc",            // bad int
		"n=125;eps=x",      // bad float
		"n=125;proto=smtp", // unknown protocol
		"n=125;rounds=1,2", // single-valued key
		"n=125;zap=1",      // unknown key
		"n=125;rounds",     // not key=value
	} {
		if _, err := parseMatrixSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-fig", "9z"}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunBadFlags(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-quick=maybe"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunClockFlag(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-matrix", "n=60;f=3;rounds=6;repeats=1", "-clock", "event"}); err != nil {
		t.Fatalf("run(-clock event): %v", err)
	}
	if err := run([]string{"-matrix", "n=60;f=3;rounds=6;repeats=1", "-clock", "event", "-period-ms", "50"}); err != nil {
		t.Fatalf("run(-clock event -period-ms 50): %v", err)
	}
	if err := run([]string{"-fig", "5b", "-quick", "-clock", "sundial"}); err == nil {
		t.Fatal("unknown clock accepted")
	}
	// PeriodMs is an event-clock knob; the round clock must reject it.
	if err := run([]string{"-matrix", "n=60;f=3;rounds=6;repeats=1", "-period-ms", "50"}); err == nil {
		t.Fatal("period-ms accepted on the round clock")
	}
}

func TestParseMatrixSpecDelay(t *testing.T) {
	t.Parallel()
	spec, err := parseMatrixSpec("n=60;delay=fixed:2,uniform:1-4,")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fixed:2", "uniform:1-4", ""}
	if !reflect.DeepEqual(spec.DelaySpecs, want) {
		t.Fatalf("delay specs %q, want %q", spec.DelaySpecs, want)
	}
	// The specs parse through fault.ParseDelaySpec when the matrix runs;
	// pin the grammar end to end for the round- and ms-unit forms.
	for _, s := range []string{"fixed:2", "uniform:1-4", "ms:fixed:30"} {
		if _, err := fault.ParseDelaySpec(s); err != nil {
			t.Errorf("ParseDelaySpec(%q): %v", s, err)
		}
	}
	if err := run([]string{"-matrix", "n=60;f=3;rounds=6;repeats=1;delay=nonsense:9"}); err == nil {
		t.Fatal("bad delay spec accepted")
	}
}

func TestRunMatrixDelay(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-matrix", "n=60;f=3;rounds=6;repeats=1;delay=fixed:1"}); err != nil {
		t.Fatalf("run(-matrix delay): %v", err)
	}
}

func TestRunListScenarios(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-list-scenarios"}); err != nil {
		t.Fatalf("run(-list-scenarios): %v", err)
	}
}

func TestRunRecordReplay(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	const name = "million-lite-churn" // cheapest scenario in the registry
	if err := run([]string{"-record", name, "-golden-dir", dir}); err != nil {
		t.Fatalf("run(-record): %v", err)
	}
	tape, err := os.ReadFile(filepath.Join(dir, golden.File(name)))
	if err != nil {
		t.Fatalf("recorded tape missing: %v", err)
	}
	if len(tape) == 0 {
		t.Fatal("recorded tape is empty")
	}
	if err := run([]string{"-replay", name, "-golden-dir", dir}); err != nil {
		t.Fatalf("run(-replay): %v", err)
	}
	// A corrupted tape must fail the replay.
	if err := os.WriteFile(filepath.Join(dir, golden.File(name)), append(tape, "tamper\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-replay", name, "-golden-dir", dir}); err == nil {
		t.Fatal("replay accepted a tampered tape")
	}
}

func TestRunGoldenFlagErrors(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-record", "no-such-scenario"}); err == nil {
		t.Fatal("unknown record scenario accepted")
	}
	if err := run([]string{"-replay", "no-such-scenario"}); err == nil {
		t.Fatal("unknown replay scenario accepted")
	}
	if err := run([]string{"-record", "all", "-replay", "all"}); err == nil {
		t.Fatal("-record with -replay accepted")
	}
	if err := run([]string{"-replay", "million-lite-churn", "-golden-dir", t.TempDir()}); err == nil {
		t.Fatal("replay without a recorded tape accepted")
	}
}
