package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestTrajectoryRoundTrip pins the BENCH_*.json format: what the tool
// writes, it (and the CI gate) can read back unchanged.
func TestTrajectoryRoundTrip(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	entries := []Entry{
		{Name: "a/b/c", NsPerOp: 1234.5, AllocsPerOp: 7, BytesPerOp: 99,
			Metrics: map[string]float64{"datagrams/op": 15}, Gate: true, MaxAllocs: -1},
		{Name: "d", Gate: false, MaxAllocs: 2},
	}
	if err := writeEntries(path, entries); err != nil {
		t.Fatal(err)
	}
	got, err := readEntries(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(entries, got) {
		t.Errorf("round trip mismatch:\nwrote %+v\nread  %+v", entries, got)
	}
}

// TestWriteEntriesPreservesUnrunBaselines pins the carry-over rule: a
// rewrite that did not produce some baseline entry (the -big scale cells
// on a regular run) keeps that entry instead of dropping it.
func TestWriteEntriesPreservesUnrunBaselines(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := writeEntries(path, []Entry{
		{Name: "regular", AllocsPerOp: 5, Gate: true, MaxAllocs: -1},
		{Name: "nightly-only", AllocsPerOp: 9, Gate: true, MaxAllocs: -1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := writeEntries(path, []Entry{
		{Name: "regular", AllocsPerOp: 4, Gate: true, MaxAllocs: -1},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := readEntries(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Name: "regular", AllocsPerOp: 4, Gate: true, MaxAllocs: -1},
		{Name: "nightly-only", AllocsPerOp: 9, Gate: true, MaxAllocs: -1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("carry-over mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestCheckRegression covers the gate rules: absolute ceilings, relative
// headroom, ungated entries, unknown names, and a missing baseline file.
func TestCheckRegression(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_base.json")
	if err := writeEntries(baseline, []Entry{
		{Name: "steady", AllocsPerOp: 0, Gate: true, MaxAllocs: 2},
		{Name: "relative", AllocsPerOp: 100, Gate: true, MaxAllocs: -1},
		{Name: "ungated", AllocsPerOp: 10, Gate: false, MaxAllocs: -1},
		{Name: "setup", AllocsPerOp: 1000, Gate: true, MaxAllocs: -1,
			Metrics: map[string]float64{"setup_allocs_per_op": 1000, "bytes_per_process": 3000}},
		{Name: "table", AllocsPerOp: 0, Gate: true, MaxAllocs: 0,
			Metrics: map[string]float64{"table_bytes": 6144}},
		{Name: "loaded", AllocsPerOp: 40, Gate: true, MaxAllocs: -1,
			Metrics: map[string]float64{"emit_bytes": 1400}},
	}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		fresh    []Entry
		problems int
	}{
		{"clean", []Entry{
			{Name: "steady", AllocsPerOp: 1, Gate: true, MaxAllocs: 2},
			{Name: "relative", AllocsPerOp: 110, Gate: true, MaxAllocs: -1},
		}, 0},
		{"absolute ceiling", []Entry{
			{Name: "steady", AllocsPerOp: 3, Gate: true, MaxAllocs: 2},
		}, 1},
		{"relative regression", []Entry{
			{Name: "relative", AllocsPerOp: 200, Gate: true, MaxAllocs: -1},
		}, 1},
		{"ungated entries never fail", []Entry{
			{Name: "ungated", AllocsPerOp: 10_000, Gate: false, MaxAllocs: -1},
		}, 0},
		{"new benchmark without baseline passes", []Entry{
			{Name: "brand-new", AllocsPerOp: 10_000, Gate: true, MaxAllocs: -1},
		}, 0},
		{"setup metric within headroom", []Entry{
			{Name: "setup", AllocsPerOp: 1100, Gate: true, MaxAllocs: -1,
				Metrics: map[string]float64{"setup_allocs_per_op": 1100}},
		}, 0},
		{"setup metric regression", []Entry{
			{Name: "setup", AllocsPerOp: 1100, Gate: true, MaxAllocs: -1,
				Metrics: map[string]float64{"setup_allocs_per_op": 2000}},
		}, 1},
		{"footprint metric within headroom, then past it", []Entry{
			{Name: "setup", AllocsPerOp: 1000, Gate: true, MaxAllocs: -1,
				Metrics: map[string]float64{"bytes_per_process": 3700}},
			{Name: "setup", AllocsPerOp: 1000, Gate: true, MaxAllocs: -1,
				Metrics: map[string]float64{"bytes_per_process": 3800}},
		}, 1},
		{"table bytes within headroom, then past it", []Entry{
			{Name: "table", Gate: true, MaxAllocs: 0, Metrics: map[string]float64{"table_bytes": 7600}},
			{Name: "table", Gate: true, MaxAllocs: 0, Metrics: map[string]float64{"table_bytes": 9472}},
		}, 1},
		{"emission bytes within headroom, then past it", []Entry{
			{Name: "loaded", AllocsPerOp: 40, Gate: true, MaxAllocs: -1, Metrics: map[string]float64{"emit_bytes": 1700}},
			{Name: "loaded", AllocsPerOp: 40, Gate: true, MaxAllocs: -1, Metrics: map[string]float64{"emit_bytes": 1800}},
		}, 1},
	}
	for _, tc := range cases {
		problems, err := checkRegression(baseline, tc.fresh, 0.25)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(problems) != tc.problems {
			t.Errorf("%s: got %d problems %v, want %d", tc.name, len(problems), problems, tc.problems)
		}
	}

	// A missing baseline is the bootstrap case, not an error.
	problems, err := checkRegression(filepath.Join(dir, "missing.json"), cases[0].fresh, 0.25)
	if err != nil || len(problems) != 0 {
		t.Errorf("missing baseline: problems=%v err=%v, want none", problems, err)
	}

	// A corrupt baseline is an error (the gate must not silently pass).
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkRegression(corrupt, cases[0].fresh, 0.25); err == nil {
		t.Error("corrupt baseline: want an error")
	}
}

// TestRunQuickLiveSuite is the end-to-end smoke: the quick live suite
// runs, writes a valid trajectory file, and a -check re-run against the
// freshly written baseline reports no regression.
func TestRunQuickLiveSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks; skipped with -short")
	}
	out := filepath.Join(t.TempDir(), "BENCH_live.json")
	if err := run([]string{"-quick", "-suite", "live", "-live-out", out}); err != nil {
		t.Fatalf("run(live): %v", err)
	}
	entries, err := readEntries(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("live suite wrote no entries")
	}
	if entries[0].Metrics["datagrams/op"] == 0 {
		t.Errorf("udp-sendbatch reported no datagrams: %+v", entries[0])
	}
	// Same machine, same binary, fresh baseline: must pass the gate.
	if err := run([]string{"-quick", "-suite", "live", "-live-out", out, "-check"}); err != nil {
		t.Fatalf("run(live -check) regressed against itself: %v", err)
	}
}
