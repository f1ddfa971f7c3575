// Command benchmark is the repository's benchmark: five workloads that
// drive the simulator, the topic bus and the live UDP runtime through
// their public functions, seven end-to-end metrics in calibrated
// reference-seconds, and a traced run that attributes the cost to layers.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(p params) *result // the untraced, measured run
	trc  func(p params) *result // the traced run: spans, layer replay, probes
}

var workloads = []workload{
	{name: wSeq, why: "n=1000, 4 publishes/period, retransmit, sequential round clock: the loaded regime where core, buffer, membership and rng do nearly all the work and executor, wheel and delay ring none",
		run: func(p params) *result { return runSimLoad(&seqSpec, p) },
		trc: func(p params) *result { return traceSimLoad(&seqSpec, p) }},
	{name: wWan, why: "same engines, event clock, async, two clusters with ms delays and a recurring WAN cut: the only place timer wheel, in-flight ring, topology and partition checks and timed-out pulls carry weight",
		run: func(p params) *result { return runSimLoad(&wanSpec, p) },
		trc: func(p params) *result { return traceSimLoad(&wanSpec, p) }},
	{name: wScale, why: "n=25000, one event per fresh cluster, sharded executor on one P: set-up (idmap, pool), bytes per process and the executor dominate; nearly all processes idle, so work that tracks the active set shows",
		run: runScale, trc: traceScale},
	{name: wBus, why: "16 Zipf topics, 2000 subscriptions, 4 publishes and 4 cancels per step, each leave replaced by a join: many small groups, and the membership write path beside the steady read path",
		run: runBus, trc: traceBus},
	{name: wLive, why: "16 nodes on UDP loopback, 5 ms interval, open-loop 100 events/s of 64 B timed from their due time: the only workload through wire, transport and the node run loop, in wall time",
		run: runLive, trc: traceLive},
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload (default: all)")
		seed      = flag.Uint64("seed", 1, "drives every generated input: publish origins, Zipf draws, churn picks, simulator seeds")
		seconds   = flag.Float64("seconds", 10, "size of the measured window, in reference-seconds of work")
		trace     = flag.Int("trace", 0, "1: traced run (spans, layer replay, per-layer metrics); 0: measured run (end-to-end metrics)")
		quick     = flag.Bool("quick", false, "smoke pass: n and windows ÷ 10, under 10 s per workload; figures are not comparable")
		outDir    = flag.String("out", "benchmark/out", "directory for trace files")
		verify    = flag.Bool("verify", false, "run every sim/bus workload twice for 40 periods with one seed and require identical outputs")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice and compare every end-to-end metric against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	p := params{seed: *seed, seconds: *seconds, quick: *quick, trace: *trace != 0, outDir: *outDir}
	if p.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fatalf("unknown workload %q", *name)
		}
	}

	if *verify || *selfcheck {
		ok := true
		if *verify {
			ok = runVerify(os.Stdout, selected, p) && ok
		}
		if *selfcheck {
			ok = runSelfcheck(os.Stdout, selected, p) && ok
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	ok := true
	for _, w := range selected {
		run := w.run
		if p.trace {
			run = w.trc
		}
		t0 := time.Now()
		res := run(p)
		res.note("the run took %.1f s in all", time.Since(t0).Seconds())
		printResult(os.Stdout, res, p)
		ok = ok && res.correct()
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// reported returns the metric table a run reports: end-to-end without
// tracing, per-layer with.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printResult writes the human-readable table and then, as the last line,
// the machine-readable object.
func printResult(out *os.File, res *result, p params) {
	host := hostInfo()
	keys := make([]string, 0, len(host))
	for k := range host {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var hs []string
	for _, k := range keys {
		hs = append(hs, k+"="+host[k])
	}
	fmt.Fprintf(out, "# workload %s seed=%d seconds=%g trace=%v quick=%v %s\n",
		res.workload, p.seed, p.seconds, p.trace, p.quick, strings.Join(hs, " "))
	for _, d := range reported(p.trace) {
		line := fmt.Sprintf("%-34s %16.6g %-6s", d.name, res.metrics[d.name], d.unit)
		if n, ok := res.counts[d.name+".n"]; ok {
			line += fmt.Sprintf("  %s.n=%d", d.name, n)
		}
		fmt.Fprintln(out, line)
	}
	if !p.trace {
		// Raw host figures ride along so a slow box can be told from a
		// slow program without a second run.
		for _, name := range []string{"host.proc_rounds_per_wall_s", "host.setup_wall_s", "host.warmup_s",
			"host.calib_floor_ms", "host.calib_median_ms", "host.burst_share"} {
			fmt.Fprintf(out, "%-34s %16.6g\n", name, res.metrics[name])
		}
	}
	fmt.Fprintf(out, "ops=%d failed_ops=%d correct=%v\n", res.ops, res.failedOps, res.correct())
	for _, n := range res.notes {
		fmt.Fprintln(out, "note:", n)
	}
	for _, pr := range res.problems {
		fmt.Fprintln(out, "PROBLEM:", pr)
	}

	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Correct: res.correct(), Attempted: res.ops, Failed: res.failedOps, Metrics: map[string]metricOut{}}
	for _, d := range reported(p.trace) {
		obj.Metrics[d.name] = metricOut{Value: res.metrics[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(obj)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintln(out, string(b))
}
