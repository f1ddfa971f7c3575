package sim

import (
	"reflect"
	"strings"
	"testing"
)

func TestRunMatrixDeterministic(t *testing.T) {
	t.Parallel()
	spec := MatrixSpec{
		Ns:        []int{60, 125},
		Fanouts:   []int{3, 4},
		Protocols: []Protocol{Lpbcast, PbcastPartial},
		Rounds:    6,
		Repeats:   2,
		Seed:      5,
		RunConfig: RunConfig{Workers: 2},
	}
	a, err := RunMatrix(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMatrix(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 8 {
		t.Fatalf("got %d cells, want 8", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two identical sweeps disagree; RunMatrix is not deterministic")
	}
	for _, c := range a {
		if c.Err != nil {
			t.Errorf("cell %s n=%d failed: %v", c.Name(), c.N, c.Err)
			continue
		}
		if got := len(c.Result.PerRound); got != spec.Rounds+1 {
			t.Errorf("cell %s n=%d: %d rounds recorded, want %d", c.Name(), c.N, got, spec.Rounds+1)
		}
	}
}

func TestRunMatrixCellOrder(t *testing.T) {
	t.Parallel()
	cells, err := RunMatrix(MatrixSpec{
		Ns:      []int{50, 100},
		Fanouts: []int{3, 5},
		Rounds:  4,
		Repeats: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cross product: fanout-major over the two sizes.
	want := []struct{ f, n int }{{3, 50}, {3, 100}, {5, 50}, {5, 100}}
	for i, w := range want {
		if cells[i].Fanout != w.f || cells[i].N != w.n {
			t.Errorf("cell %d = F=%d,n=%d, want F=%d,n=%d", i, cells[i].Fanout, cells[i].N, w.f, w.n)
		}
	}
}

func TestRunMatrixRequiresSizes(t *testing.T) {
	t.Parallel()
	if _, err := RunMatrix(MatrixSpec{}, nil); err == nil {
		t.Error("empty spec accepted")
	}
}

func TestRunMatrixReportsCellErrors(t *testing.T) {
	t.Parallel()
	// Fanout 40 exceeds the default view size l=15: every cell must fail
	// with a configuration error rather than panic or hang the sweep.
	cells, err := RunMatrix(MatrixSpec{Ns: []int{60}, Fanouts: []int{40}, Rounds: 3, Repeats: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Err == nil {
		t.Errorf("invalid cell did not report an error: %+v", cells)
	}
}

func TestMatrixTable(t *testing.T) {
	t.Parallel()
	cells, err := RunMatrix(MatrixSpec{Ns: []int{60, 125}, Rounds: 8, Repeats: 1, RunConfig: RunConfig{Workers: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := MatrixTable(cells).Render()
	if !strings.Contains(out, "lpbcast,F=3,eps=0.05,tau=0.01") {
		t.Errorf("table missing series label:\n%s", out)
	}
	if !strings.Contains(out, "125") {
		t.Errorf("table missing the n=125 row:\n%s", out)
	}
}

// TestMatrixDelaySpecs drives the delay dimension through the spec-string
// grammar, including a millisecond cell that must auto-select the event
// clock to run at all.
func TestMatrixDelaySpecs(t *testing.T) {
	t.Parallel()
	cells, err := RunMatrix(MatrixSpec{
		Ns:         []int{60},
		DelaySpecs: []string{"", "fixed:1", "uniform:0-2", "ms:fixed:30"},
		Rounds:     6,
		Repeats:    1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	for _, c := range cells {
		if c.Err != nil {
			t.Errorf("cell %s failed: %v", c.Name(), c.Err)
		}
	}
	if name := cells[0].Name(); strings.Contains(name, "d=") {
		t.Errorf("zero-delay cell name %q shows a delay dimension", name)
	}
	if name := cells[3].Name(); !strings.Contains(name, "d=ms:fixed:30") {
		t.Errorf("ms cell name %q hides its delay spec", name)
	}
}

// TestMatrixRejectsMalformedSpec: an unparsable delay spec fails its cells
// loudly, with the spec visible in the cell name.
func TestMatrixRejectsMalformedSpec(t *testing.T) {
	t.Parallel()
	cells, err := RunMatrix(MatrixSpec{Ns: []int{60}, DelaySpecs: []string{"warp:9"}, Rounds: 3, Repeats: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Err == nil {
		t.Fatalf("malformed spec cell did not error: %+v", cells)
	}
	if got := cells[0].Name(); !strings.Contains(got, "d=warp:9") {
		t.Errorf("cell name %q hides the malformed spec", got)
	}
}
