package designrules

import (
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// allowUnreached are the names Rule A lets pass, each with its reason. A
// name here counts as reached, so the names it uses do too.
var allowUnreached = map[string]string{
	"analysis.Figure2":         "ROADMAP item 8(a): the table of paper assertions is its production use",
	"analysis.Figure4":         "ROADMAP item 8(a): the table of paper assertions is its production use",
	"analysis.NoPartitionProb": "ROADMAP item 8(a): the table's Eq. 5 row is its production use",
	"rng.Source.State":         "ROADMAP item 19: the tapes' per-process stream positions read it",
	"sim.LoadExperiment":       "§3.3's flat-load experiment, an entry point README lists beside the other experiment families",
	"sim.LoadResult":           "LoadExperiment's result",
}

// allowWorld are the go statements and map ranges Rule B lets pass in the
// period packages, keyed "file:func" or "file:func range x", each with the
// reason its order or its concurrency cannot reach a draw or an output.
var allowWorld = map[string]string{
	"sim/build.go:Cluster.buildEngines":                      "one construction goroutine a shard, each building its own processes from streams split in pid order beforehand",
	"sim/executor.go:newShardedExecutor":                     "the executor's worker pool",
	"sim/matrix.go:RunMatrix":                                "one goroutine a matrix cell, each its own cluster, results stored by cell index",
	"buffer/digest.go:CompactDigest.SparseLen range d.ahead": "an integer sum",
	"membership/graph.go:Graph.InDegrees range g":            "counts into a map, the same in any order",
	"membership/graph.go:Graph.InDegreeStats range deg":      "integer sums and extremes",
	"pubsub/pubsub.go:Bus.TotalNetStats range b.topics":      "integer counter sums",
}

// maxKnobs bounds Rule C's count: a Config, Options or Spec field added
// without one removed fails the gate.
const maxKnobs = 108

var (
	stdOnce sync.Once
	fset    *token.FileSet
	std     types.Importer

	repoOnce sync.Once
	loaded   *program
	loadErr  error
)

// stdlib returns the one file set and standard-library importer every
// load shares, so the standard library is type-checked once per binary.
func stdlib() (*token.FileSet, types.Importer) {
	stdOnce.Do(func() {
		fset = token.NewFileSet()
		std = newStdImporter(fset)
	})
	return fset, std
}

// repo type-checks both modules of the repository once per test binary.
func repo(t *testing.T) *program {
	t.Helper()
	repoOnce.Do(func() {
		fs, imp := stdlib()
		loaded, loadErr = load(fs, imp, filepath.Join("..", ".."), filepath.Join("..", "..", "benchmark"))
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

// TestRuleAReached: every exported name under internal/ has a production
// use in the repository's two modules, or an allowlist entry saying why it
// stays.
func TestRuleAReached(t *testing.T) {
	out, stale := unreached(repo(t), allowUnreached)
	for _, name := range out {
		t.Errorf("%s: only tests reach it; delete it, or allowlist it with a reason", name)
	}
	for _, e := range stale {
		t.Errorf("stale allowlist entry %s", e)
	}
}

// TestRuleBPeriodReadsNoWorld: no code of a simulated period reads the wall
// clock or math/rand, starts a goroutine, or ranges over a map where the
// order can reach a draw or an output.
func TestRuleBPeriodReadsNoWorld(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range worldReads(repo(t)) {
		if _, ok := allowWorld[f.key]; ok && f.key != "" {
			seen[f.key] = true
		} else {
			t.Error(f)
		}
	}
	for key := range allowWorld {
		if !seen[key] {
			t.Errorf("stale allowlist entry %s", key)
		}
	}
}

// TestRuleCKnobs counts the exported fields of every Config, Options and
// Spec struct in both modules; the count may fall, never rise.
func TestRuleCKnobs(t *testing.T) {
	fields, structs := knobs(repo(t))
	t.Logf("knobs: %d exported fields in %d Config/Options/Spec structs", fields, structs)
	if fields > maxKnobs {
		t.Errorf("%d knobs, above the bound of %d: remove a field for each one added", fields, maxKnobs)
	}
}

// TestRulesFireOnPlanted runs the three rules on testdata/planted, a module
// with one breach of each: an exported method only its test calls, a wall
// clock read in a period package, and a map range whose order reaches a
// draw. Each rule must report its breach.
func TestRulesFireOnPlanted(t *testing.T) {
	fs, imp := stdlib()
	p, err := load(fs, imp, filepath.Join("testdata", "planted"))
	if err != nil {
		t.Fatal(err)
	}
	out, stale := unreached(p, map[string]string{"core.Gone": "", "core.New": ""})
	if want := []string{"core.Engine.Planted"}; !slices.Equal(out, want) {
		t.Errorf("Rule A reported %v, want %v", out, want)
	}
	if want := []string{"core.Gone (no such name)", "core.New (reached without the allowlist)"}; !slices.Equal(stale, want) {
		t.Errorf("Rule A found stale entries %v, want %v", stale, want)
	}
	var clock, ranges int
	for _, f := range worldReads(p) {
		switch {
		case strings.HasPrefix(f.what, "reads the wall clock"):
			clock++
		case f.key == "core/core.go:Engine.Run range e.seen":
			ranges++
		default:
			t.Errorf("Rule B reported %s", f)
		}
	}
	if clock != 2 || ranges != 1 {
		t.Errorf("Rule B found %d wall-clock reads and %d map ranges; want 2 and 1", clock, ranges)
	}
	if fields, structs := knobs(p); fields != 2 || structs != 1 {
		t.Errorf("Rule C counted %d fields in %d structs; want 2 in 1", fields, structs)
	}
}
