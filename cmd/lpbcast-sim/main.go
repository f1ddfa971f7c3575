// Command lpbcast-sim reproduces the paper's empirical figures by
// simulation: Figs. 5(a), 5(b) (lpbcast infection traces), 6(a), 6(b)
// (delivery reliability under bounded buffers) and 7(a), 7(b) (comparison
// with Bimodal Multicast). Output is a gnuplot-style data table per
// figure.
//
// Usage:
//
//	lpbcast-sim                 # all figures at full scale (slow-ish)
//	lpbcast-sim -fig 6b         # a single figure
//	lpbcast-sim -quick          # reduced repeats/rounds for a fast look
//	lpbcast-sim -workers 8      # sharded parallel round executor
//	lpbcast-sim -matrix "n=500,1000;f=3,4;proto=lpbcast"
//
// The -matrix flag runs a scenario sweep instead of the figures: a
// semicolon-separated grid of n (system sizes), f (fanouts), eps (loss
// probabilities), tau (crash fractions), delay (delay-model specs —
// "fixed:2", "uniform:1-4" in whole rounds, "ms:fixed:30",
// "ms:uniform:10-40" in virtual milliseconds on the event clock), topics (pub/sub topic counts — cells with
// topics > 1 run a Zipf-popularity pubsub workload and trace the hottest
// topic), proto (lpbcast, pbcast/partial, pbcast/total), rounds, repeats
// and seed. Cells run concurrently and the sweep is
// deterministic for a given spec. The "latency" figure compares infection
// latency across network topologies (flat, two-cluster WAN, hierarchical).
//
// The -clock flag selects the simulator's time base (rounds or event); the
// event clock runs gossip periods in virtual milliseconds, -period-ms of
// them a period, and lands each delayed message at its arrival instant.
//
// The golden-tape flags drive the internal/golden scenario suite instead
// of the figures:
//
//	lpbcast-sim -list-scenarios         # names + one-line docs
//	lpbcast-sim -record all             # (re)record every golden tape
//	lpbcast-sim -record wan-partition-heal
//	lpbcast-sim -replay all             # re-run and diff against the tapes
//
// -golden-dir overrides the tape directory (default testdata/golden,
// relative to the working directory — run from the repository root).
//
// -cpuprofile and -memprofile write pprof profiles of whatever the run did.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/golden"
	"repro/internal/prof"
	"repro/internal/pubsub"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lpbcast-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("lpbcast-sim", flag.ContinueOnError)
	profiles := prof.Register(fs)
	var (
		fig      = fs.String("fig", "all", "figure to print: 5a, 5b, 6a, 6b, 7a, 7b, crash, latency, all")
		quick    = fs.Bool("quick", false, "use reduced repeats/rounds")
		workers  = fs.Int("workers", -1, "executor shards per cluster, for synchronous rounds and async periods alike (-1 = GOMAXPROCS, 0/1 = one shard, run inline)")
		matrix   = fs.String("matrix", "", `scenario sweep spec, e.g. "n=500,1000;f=3,4;eps=0.05;tau=0.01;proto=lpbcast"`)
		clock    = fs.String("clock", "rounds", "time base: rounds (lockstep) or event (virtual-time scheduler)")
		periodMs = fs.Int("period-ms", 0, "gossip period in virtual ms on the event clock (0 = default 100)")

		record    = fs.String("record", "", `record golden tape(s): a scenario name or "all"`)
		replay    = fs.String("replay", "", `re-run golden scenario(s) and diff against the tape(s): a scenario name or "all"`)
		goldenDir = fs.String("golden-dir", golden.DefaultDir, "golden tape directory for -record/-replay")
		list      = fs.Bool("list-scenarios", false, "list golden scenario names and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, s := range golden.Scenarios() {
			fmt.Printf("%-20s %s\n", s.Name, s.Doc)
		}
		return nil
	}
	stopProfiles, err := profiles.Start()
	if err != nil {
		return err
	}
	defer stopProfiles(&err)
	if *record != "" && *replay != "" {
		return fmt.Errorf("-record and -replay are mutually exclusive")
	}
	if *record != "" {
		return recordScenarios(*record, *goldenDir)
	}
	if *replay != "" {
		return replayScenarios(*replay, *goldenDir)
	}
	workersSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			workersSet = true
		}
	})
	var rc sim.RunConfig
	switch *clock {
	case "rounds":
	case "event":
		rc.Clock = sim.ClockEvent
	default:
		return fmt.Errorf("unknown clock %q (want rounds or event)", *clock)
	}
	rc.PeriodMs = *periodMs

	if *matrix != "" {
		spec, err := parseMatrixSpec(*matrix)
		if err != nil {
			return err
		}
		// A matrix sweep already runs GOMAXPROCS cells concurrently, so
		// sharding inside every cell as well would only oversubscribe the
		// machine; per-cell workers are opt-in here.
		if workersSet {
			rc.Workers = *workers
		}
		spec.RunConfig = rc
		cells, err := sim.RunMatrix(spec, pubsub.TopicCell)
		if err != nil {
			return err
		}
		for _, c := range cells {
			if c.Err != nil {
				return fmt.Errorf("cell %s n=%d: %w", c.Name(), c.N, c.Err)
			}
		}
		fmt.Print(sim.MatrixTable(cells).Render())
		return nil
	}

	scale := sim.FullScale()
	if *quick {
		scale = sim.QuickScale()
	}
	rc.Workers = *workers
	scale.RunConfig = rc

	printers := map[string]func(sim.FigureScale) (*stats.Table, error){
		"5a": sim.Figure5a,
		"5b": sim.Figure5b,
		"6a": sim.Figure6a,
		"6b": sim.Figure6b,
		"7a": sim.Figure7a,
		"7b": sim.Figure7b,
		"crash": func(sim.FigureScale) (*stats.Table, error) {
			return sim.ResilienceSweep([]float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}, 9)
		},
		"latency": sim.FigureLatency,
	}
	order := []string{"5a", "5b", "6a", "6b", "7a", "7b", "crash", "latency"}

	if *fig != "all" {
		p, ok := printers[*fig]
		if !ok {
			return fmt.Errorf("unknown figure %q (want 5a, 5b, 6a, 6b, 7a, 7b, crash, latency, all)", *fig)
		}
		tbl, err := p(scale)
		if err != nil {
			return err
		}
		fmt.Print(tbl.Render())
		return nil
	}
	for _, k := range order {
		tbl, err := printers[k](scale)
		if err != nil {
			return err
		}
		fmt.Print(tbl.Render())
		fmt.Println()
	}
	return nil
}

// selectScenarios resolves a -record/-replay argument to scenarios.
func selectScenarios(name string) ([]golden.Scenario, error) {
	if name == "all" {
		return golden.Scenarios(), nil
	}
	s, ok := golden.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (see -list-scenarios)", name)
	}
	return []golden.Scenario{s}, nil
}

// recordScenarios writes fresh golden tapes.
func recordScenarios(name, dir string) error {
	ss, err := selectScenarios(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range ss {
		tape, err := golden.Record(s)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, golden.File(s.Name))
		if err := os.WriteFile(path, tape, 0o644); err != nil {
			return err
		}
		fmt.Printf("recorded %s (%d bytes)\n", path, len(tape))
	}
	return nil
}

// replayScenarios re-runs scenarios and diffs against the checked-in
// tapes, reporting every divergence before failing.
func replayScenarios(name, dir string) error {
	ss, err := selectScenarios(name)
	if err != nil {
		return err
	}
	failed := 0
	for _, s := range ss {
		tape, err := golden.Record(s)
		if err != nil {
			return err
		}
		want, err := os.ReadFile(filepath.Join(dir, golden.File(s.Name)))
		if err != nil {
			return fmt.Errorf("%s: %w (record it first with -record)", s.Name, err)
		}
		if err := golden.Compare(tape, want); err != nil {
			fmt.Printf("FAIL %s: %v\n", s.Name, err)
			failed++
			continue
		}
		fmt.Printf("ok   %s\n", s.Name)
	}
	if failed > 0 {
		return fmt.Errorf("%d scenario(s) diverged from their golden tapes", failed)
	}
	return nil
}

// parseMatrixSpec parses the compact -matrix grammar: semicolon-separated
// key=value fields whose values are comma-separated lists. Unknown keys
// are rejected; omitted dimensions use RunMatrix's defaults.
func parseMatrixSpec(s string) (sim.MatrixSpec, error) {
	var spec sim.MatrixSpec
	for _, field := range strings.Split(s, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return spec, fmt.Errorf("matrix: field %q is not key=value", field)
		}
		key = strings.TrimSpace(key)
		vals := strings.Split(val, ",")
		var err error
		switch key {
		case "n":
			spec.Ns, err = parseInts(vals)
		case "f":
			spec.Fanouts, err = parseInts(vals)
		case "eps":
			spec.Epsilons, err = parseFloats(vals)
		case "tau":
			spec.Taus, err = parseFloats(vals)
		case "delay":
			spec.DelaySpecs = parseStrings(vals)
		case "topics":
			spec.Topics, err = parseInts(vals)
		case "proto":
			spec.Protocols, err = parseProtocols(vals)
		case "rounds":
			spec.Rounds, err = parseSingleInt(key, vals)
		case "repeats":
			spec.Repeats, err = parseSingleInt(key, vals)
		case "seed":
			var seed int
			seed, err = parseSingleInt(key, vals)
			spec.Seed = uint64(seed)
		default:
			return spec, fmt.Errorf("matrix: unknown key %q (want n, f, eps, tau, delay, topics, proto, rounds, repeats, seed)", key)
		}
		if err != nil {
			return spec, err
		}
	}
	if len(spec.Ns) == 0 {
		return spec, fmt.Errorf("matrix: the n dimension is required")
	}
	return spec, nil
}

// parseStrings trims each comma-separated value, keeping empty entries
// (an empty delay spec selects the zero-delay fast path).
func parseStrings(vals []string) []string {
	out := make([]string, 0, len(vals))
	for _, v := range vals {
		out = append(out, strings.TrimSpace(v))
	}
	return out
}

func parseInts(vals []string) ([]int, error) {
	out := make([]int, 0, len(vals))
	for _, v := range vals {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			return nil, fmt.Errorf("matrix: bad integer %q", v)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseSingleInt(key string, vals []string) (int, error) {
	if len(vals) != 1 {
		return 0, fmt.Errorf("matrix: %s takes a single value", key)
	}
	n, err := strconv.Atoi(strings.TrimSpace(vals[0]))
	if err != nil {
		return 0, fmt.Errorf("matrix: bad integer %q", vals[0])
	}
	return n, nil
}

func parseFloats(vals []string) ([]float64, error) {
	out := make([]float64, 0, len(vals))
	for _, v := range vals {
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return nil, fmt.Errorf("matrix: bad float %q", v)
		}
		out = append(out, f)
	}
	return out, nil
}

func parseProtocols(vals []string) ([]sim.Protocol, error) {
	out := make([]sim.Protocol, 0, len(vals))
	for _, v := range vals {
		switch strings.TrimSpace(v) {
		case "lpbcast":
			out = append(out, sim.Lpbcast)
		case "pbcast/partial":
			out = append(out, sim.PbcastPartial)
		case "pbcast/total":
			out = append(out, sim.PbcastTotal)
		default:
			return nil, fmt.Errorf("matrix: unknown protocol %q (want lpbcast, pbcast/partial, pbcast/total)", v)
		}
	}
	return out, nil
}
