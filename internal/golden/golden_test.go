package golden

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// update rewrites the checked-in tapes instead of diffing against them:
//
//	go test ./internal/golden -run TestGoldenTapes -update
//
// Review the resulting tape diff like any other code change.
var update = flag.Bool("update", false, "rewrite golden tapes under testdata/golden")

// tapeDir is DefaultDir reached from this package directory.
const tapeDir = "../../" + DefaultDir

// TestGoldenTapes records every registered scenario and byte-compares the
// tape against the checked-in golden file. For cluster scenarios it also
// re-records on three shards and on GOMAXPROCS shards and — where the
// scenario is marked BothClocks — under the event clock, asserting
// byte-identical tapes: the determinism guarantees of PRs 4-8, measured
// end to end. Three is fixed so the shard merge is exercised on any
// runner — on a single core Workers=-1 is one shard, the scenario's own
// configuration — and odd: 200 and 100 processes split into uneven shards.
func TestGoldenTapes(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			got, err := Record(s)
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			path := filepath.Join(tapeDir, File(s.Name))
			if *update {
				if err := os.MkdirAll(tapeDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s (%d bytes)", path, len(got))
			} else {
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("no golden tape (run with -update to record): %v", err)
				}
				if err := Compare(got, want); err != nil {
					dumpMismatch(t, s.Name, got)
					t.Errorf("golden mismatch for %s: %v", s.Name, err)
				}
			}

			if s.Kind != KindCluster {
				return // the bus executor is single-threaded; no variants
			}
			for _, workers := range []int{3, -1} { // -1: GOMAXPROCS
				sharded := s.Opts.RunConfig
				sharded.Workers = workers
				gotPar, err := RecordVariant(s, sharded)
				if err != nil {
					t.Fatalf("record workers=%d: %v", workers, err)
				}
				if err := Compare(gotPar, got); err != nil {
					t.Errorf("tape differs between the scenario's Workers and Workers=%d: %v", workers, err)
				}
			}
			if s.BothClocks {
				ev := s.Opts.RunConfig
				ev.Clock = sim.ClockEvent
				gotEv, err := RecordVariant(s, ev)
				if err != nil {
					t.Fatalf("record clock=event: %v", err)
				}
				if err := Compare(gotEv, got); err != nil {
					t.Errorf("tape differs between round and event clocks: %v", err)
				}
			}
		})
	}
}

// dumpMismatch writes the freshly recorded tape to $GOLDEN_DIFF_DIR so CI
// can upload mismatches as artifacts for offline diffing.
func dumpMismatch(t *testing.T, name string, got []byte) {
	dir := os.Getenv("GOLDEN_DIFF_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("GOLDEN_DIFF_DIR: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.got.tape", name))
	if err := os.WriteFile(path, got, 0o644); err != nil {
		t.Logf("GOLDEN_DIFF_DIR: %v", err)
		return
	}
	t.Logf("recorded tape dumped to %s", path)
}

// TestLookup pins the registry surface the CLI record/replay path uses.
func TestLookup(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("registry has %d scenarios, want >= 8", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate scenario name %q", n)
		}
		seen[n] = true
		if _, ok := Lookup(n); !ok {
			t.Fatalf("Lookup(%q) failed for registered scenario", n)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
}

// TestCompare pins the diff formatting contract.
func TestCompare(t *testing.T) {
	if err := Compare([]byte("a\nb\n"), []byte("a\nb\n")); err != nil {
		t.Fatalf("identical tapes compared unequal: %v", err)
	}
	err := Compare([]byte("a\nb\nc\n"), []byte("a\nB\nc\n"))
	if err == nil {
		t.Fatal("divergent tapes compared equal")
	}
	if want := "line 2"; !containsStr(err.Error(), want) {
		t.Fatalf("error %q does not cite %q", err, want)
	}
	if err := Compare([]byte("a\n"), []byte("a\nb\n")); err == nil {
		t.Fatal("truncated tape compared equal")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
