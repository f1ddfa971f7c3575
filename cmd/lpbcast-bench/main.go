// Command lpbcast-bench runs the repository's performance-critical
// benchmarks outside `go test` and emits machine-readable JSON — the
// benchmark trajectory artifacts CI gates on.
//
// Two suites exist. The executor suite measures the simulator's round
// executor (one shard vs all cores, both zero-alloc, in the
// synchronous-round, wavefront-async, and delayed network-model regimes)
// and a full production-scale infection experiment; the live suite measures the
// runtime's transport paths (UDP SendBatch packing over loopback, and an
// in-process cluster broadcast). Results are written as a JSON array of
// entries carrying ns/op, allocs/op, B/op and auxiliary metrics such as
// datagrams per op (see README "Benchmark trajectory" for the format).
//
// Usage:
//
//	lpbcast-bench                          # run both suites, write BENCH_*.json
//	lpbcast-bench -suite executor          # one suite only
//	lpbcast-bench -check                   # compare against the checked-in
//	                                       # baselines before overwriting;
//	                                       # exit 1 on an allocs/op regression
//	lpbcast-bench -quick                   # reduced sizes (smoke/test mode)
//	lpbcast-bench -cpuprofile cpu.pprof    # profile the run (also -memprofile)
//
// The regression gate is allocation-based on purpose: allocs/op is
// deterministic across machines for a given Go version, while ns/op on a
// shared CI runner is not. Entries with "gate": false (timing-dependent
// benchmarks) are reported but never gated; entries with a "max_allocs"
// bound additionally enforce an absolute ceiling, machine-independent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	lpbcast "repro"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/membership"
	"repro/internal/prof"
	"repro/internal/proto"
	"repro/internal/pubsub"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lpbcast-bench:", err)
		os.Exit(1)
	}
}

// Entry is one benchmark record of the trajectory file.
type Entry struct {
	// Name identifies the benchmark; comparisons match entries by Name,
	// so names must be machine-independent (no core counts).
	Name string `json:"name"`
	// NsPerOp is wall time per operation — informational, never gated.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are the gated quantities.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Metrics carries benchmark-specific numbers (datagrams/op, workers)
	// and, on every entry, the cores of the host that measured it.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Gate marks the entry as participating in the regression check.
	Gate bool `json:"gate"`
	// MaxAllocs, when >= 0, is an absolute allocs/op ceiling (the
	// zero-alloc acceptance gates). -1 disables the ceiling.
	MaxAllocs int64 `json:"max_allocs"`
}

// benchCase pairs a trajectory entry skeleton with its benchmark body.
type benchCase struct {
	name      string
	gate      bool
	maxAllocs int64
	fn        func(b *testing.B)
	cleanup   func() // releases state cached across b.N scaling runs
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("lpbcast-bench", flag.ContinueOnError)
	profiles := prof.Register(fs)
	var (
		suite       = fs.String("suite", "all", "benchmarks to run: executor, live, all")
		executorOut = fs.String("executor-out", "BENCH_executor.json", "executor suite output path")
		liveOut     = fs.String("live-out", "BENCH_live.json", "live suite output path")
		check       = fs.Bool("check", false, "compare fresh results against the existing files and fail on allocs/op regression")
		tolerance   = fs.Float64("tolerance", 0.25, "relative allocs/op headroom for the regression check")
		quick       = fs.Bool("quick", false, "reduced problem sizes (CI smoke / tests)")
		big         = fs.Bool("big", false, "include the million-process scale benchmarks (nightly)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	type job struct {
		label string
		out   string
		cases []benchCase
	}
	var jobs []job
	if *suite == "all" || *suite == "executor" {
		jobs = append(jobs, job{"executor", *executorOut, executorSuite(*quick, *big)})
	}
	if *suite == "all" || *suite == "live" {
		jobs = append(jobs, job{"live", *liveOut, liveSuite(*quick)})
	}
	if len(jobs) == 0 {
		return fmt.Errorf("unknown suite %q (want executor, live, or all)", *suite)
	}
	stopProfiles, err := profiles.Start()
	if err != nil {
		return err
	}
	defer stopProfiles(&err)

	failed := false
	for _, j := range jobs {
		fmt.Printf("# suite %s\n", j.label)
		entries := make([]Entry, 0, len(j.cases))
		for _, c := range j.cases {
			res := testing.Benchmark(c.fn)
			if c.cleanup != nil {
				c.cleanup()
			}
			e := Entry{
				Name:        c.name,
				NsPerOp:     float64(res.NsPerOp()),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
				Gate:        c.gate,
				MaxAllocs:   c.maxAllocs,
			}
			// The core count rides on every entry, so that a two-core
			// number is never read as a scaling result.
			e.Metrics = map[string]float64{"cores": float64(runtime.NumCPU())}
			for k, v := range res.Extra {
				e.Metrics[k] = v
			}
			fmt.Printf("%-46s %12.0f ns/op %10d allocs/op %12d B/op\n",
				e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
			entries = append(entries, e)
		}
		if *check {
			problems, err := checkRegression(j.out, entries, *tolerance)
			if err != nil {
				return err
			}
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "REGRESSION:", p)
				failed = true
			}
		}
		if err := writeEntries(j.out, entries); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("allocation regressions detected (see above)")
	}
	return nil
}

// writeEntries writes the trajectory file (a JSON array of entries).
// Baseline entries the fresh run did not produce — the -big scale cells on
// a regular run — are carried over, so a PR-sized run never drops the
// nightly gates from the checked-in file.
func writeEntries(path string, entries []Entry) error {
	if baseline, err := readEntries(path); err == nil {
		seen := make(map[string]bool, len(entries))
		for _, e := range entries {
			seen[e.Name] = true
		}
		for _, e := range baseline {
			if !seen[e.Name] {
				entries = append(entries, e)
			}
		}
	}
	buf, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// readEntries loads a trajectory file.
func readEntries(path string) ([]Entry, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := json.Unmarshal(buf, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return entries, nil
}

// checkRegression compares fresh entries against the baseline file.
// An entry regresses when its allocs/op exceeds its absolute MaxAllocs
// ceiling, or — for gated entries with a matching baseline — the baseline
// allocs/op plus the relative tolerance (with a small absolute slack so a
// baseline of 0 does not forbid a single new allocation outright).
func checkRegression(baselinePath string, fresh []Entry, tolerance float64) ([]string, error) {
	baseline, err := readEntries(baselinePath)
	if os.IsNotExist(err) {
		return nil, nil // first run: nothing to compare against
	}
	if err != nil {
		return nil, err
	}
	byName := make(map[string]Entry, len(baseline))
	for _, e := range baseline {
		byName[e.Name] = e
	}
	const slack = 2 // absolute allocs of grace on top of the relative headroom
	var problems []string
	for _, e := range fresh {
		if e.MaxAllocs >= 0 && e.AllocsPerOp > e.MaxAllocs {
			problems = append(problems, fmt.Sprintf(
				"%s: %d allocs/op exceeds the absolute ceiling %d",
				e.Name, e.AllocsPerOp, e.MaxAllocs))
			continue
		}
		base, ok := byName[e.Name]
		if !ok || !e.Gate {
			continue
		}
		limit := int64(float64(base.AllocsPerOp)*(1+tolerance)) + slack
		if e.AllocsPerOp > limit {
			problems = append(problems, fmt.Sprintf(
				"%s: %d allocs/op vs baseline %d (limit %d)",
				e.Name, e.AllocsPerOp, base.AllocsPerOp, limit))
		}
		// Gated construction and footprint metrics are held to the same
		// relative headroom as allocs/op: what a cluster allocates to be
		// built, and what a process holds once built and once infected,
		// are as machine-independent as steady-state cost.
		for _, key := range []string{"setup_allocs_per_op", "bytes_per_process", "heap_bytes_per_process"} {
			fv, fok := e.Metrics[key]
			bv, bok := base.Metrics[key]
			if !fok || !bok {
				continue
			}
			if mlimit := bv*(1+tolerance) + slack; fv > mlimit {
				problems = append(problems, fmt.Sprintf(
					"%s: %s %.1f vs baseline %.1f (limit %.1f)",
					e.Name, key, fv, bv, mlimit))
			}
		}
	}
	return problems, nil
}

// steadyCluster builds a fully-infected, buffer-warmed cluster: after the
// long warmup every view map, subs list, executor scratch buffer, and
// in-flight delay bucket has reached its high-water capacity, so
// remaining allocations are the protocol's own. The executor runs engines
// in emission reuse whatever the shard count, so the zero-alloc ceiling
// applies across the whole steady matrix. workers == 0 (the "workers=1"
// cells) is the default configuration: one shard, every phase inline on
// the caller's goroutine — the same path an explicit Workers: 1 takes.
// The delayed variant runs a two-cluster
// topology whose WAN link takes 1-3 rounds. The clock selects the time
// base: on sim.ClockEvent the cluster runs the same step functions at 100
// instants per period with a millisecond uniform delay model, so every
// period walks its arrival instants — a marker pop and a barrier each —
// before the boundary's ticks.
func steadyCluster(n, workers, warmRounds int, async, delayed bool, clock sim.Clock) (*sim.Cluster, error) {
	opts := sim.DefaultOptions(n)
	opts.Seed = 9
	opts.Tau = 0
	opts.Lpbcast.AssumeFromDigest = true
	opts.Workers = workers
	opts.Async = async
	opts.Clock = clock
	if clock == sim.ClockEvent {
		opts.Delay = fault.Millis{Model: fault.UniformDelay{Min: 10, Max: 180}}
	}
	if delayed {
		opts.Topology = fault.TwoCluster{
			Split: proto.ProcessID(n / 2),
			Local: fault.LinkProfile{Epsilon: -1},
			WAN:   fault.LinkProfile{Epsilon: -1, MinDelay: 1, MaxDelay: 3},
		}
	}
	cluster, err := sim.NewCluster(opts)
	if err != nil {
		return nil, err
	}
	if _, err := cluster.PublishAt(0); err != nil {
		cluster.Close()
		return nil, err
	}
	for r := 0; r < warmRounds; r++ {
		cluster.RunRound()
	}
	return cluster, nil
}

// benchWorkers is the shard count of the parallel executor variants: all
// cores, but at least 2 so the sharded code path (and its zero-alloc
// emission reuse) is exercised even on a single-core runner.
func benchWorkers() int {
	if w := runtime.GOMAXPROCS(0); w > 2 {
		return w
	}
	return 2
}

// executorSuite builds the simulator benchmarks. big additionally
// schedules the million-process scale cells (nightly CI only — minutes,
// not milliseconds).
func executorSuite(quick, big bool) []benchCase {
	n, warm := 2_000, 300
	infectionN := 10_000
	if quick {
		n, warm = 200, 60
		infectionN = 500
	}
	steady := func(workers int, maxAllocs int64, async, delayed bool, clock sim.Clock) benchCase {
		label := "workers=1"
		if workers != 0 {
			label = "workers=max"
		}
		kind := "steady-round"
		switch {
		case async:
			kind = "steady-async-period"
		case delayed:
			kind = "steady-delayed-round"
		case clock == sim.ClockEvent:
			kind = "steady-event-round"
		}
		var cluster *sim.Cluster // built once, reused across b.N scaling runs
		return benchCase{
			name:      fmt.Sprintf("executor/%s/n=%d/%s", kind, n, label),
			gate:      true,
			maxAllocs: maxAllocs,
			fn: func(b *testing.B) {
				if cluster == nil {
					var err error
					if cluster, err = steadyCluster(n, workers, warm, async, delayed, clock); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cluster.RunRound()
				}
				b.StopTimer()
				// After ResetTimer: it clears previously reported metrics.
				b.ReportMetric(float64(workers), "workers")
			},
			cleanup: func() {
				if cluster != nil {
					cluster.Close()
				}
			},
		}
	}
	cases := []benchCase{
		// The whole steady matrix — one shard and many alike — runs in
		// emission-reuse mode over retained buffers, so every cell carries
		// the absolute zero-alloc ceiling.
		steady(0, 2, false, false, sim.ClockRounds),
		steady(benchWorkers(), 2, false, false, sim.ClockRounds),
		// The async pair measures the wavefront period: the speculative
		// schedule on one shard and on many, under the same zero-alloc
		// ceiling as its synchronous sibling.
		steady(0, 2, true, false, sim.ClockRounds),
		steady(benchWorkers(), 2, true, false, sim.ClockRounds),
		// The delayed pair routes WAN traffic through the in-flight delay
		// ring (two-cluster topology, 1-3 round WAN delay). Both flavors
		// carry the absolute ceiling, so the ring can never silently start
		// allocating in steady state.
		steady(0, 2, false, true, sim.ClockRounds),
		steady(benchWorkers(), 2, false, true, sim.ClockRounds),
		// The event pair runs the same steady state on millisecond virtual
		// time: a millisecond uniform delay model lands arrivals at up to
		// 100 instants inside each period, each its own barrier. Both flavors
		// carry the absolute zero-alloc ceiling, matching the round clock.
		steady(0, 2, false, false, sim.ClockEvent),
		steady(benchWorkers(), 2, false, false, sim.ClockEvent),
		mergeCase("absent-heavy", 25_000),
		mergeCase("present-heavy", 20),
		subsTruncateCase(),
		digestContainsCase(),
		digestScanColdCase(),
		archiveStoreFullCase(0),
		archiveStoreFullCase(64),
		archiveLookupCase(),
		archiveServeCase("pull=3", 3),
		archiveServeCase("hostile=20000", 20_000),
		pubsubSteadyCase(quick, false),
		pubsubSteadyCase(quick, true),
		pubsubInfectionCase(quick),
		setupCase(infectionN),
		infectionCase(fmt.Sprintf("executor/infection/n=%d/workers=max", infectionN), infectionN),
	}
	if big {
		// The million-process scale cell, gated relative to its own
		// baseline; runs only under -big (nightly).
		cases = append(cases, infectionCase("executor/infection/n=1000000", 1_000_000))
	}
	return cases
}

// mergeCase is the membership layer's cell: one op is phase 2 of gossip
// reception (Fig. 1(a)) — membership.Manager.ApplySubs on 16 incoming
// subscriptions at l=15 — with ids drawn from a population of universe
// processes: 25 000 makes nearly every id new to the view (the idle process
// of a large system), 20 nearly every id known. The ceiling is absolute:
// the merge and both truncations run on retained buffers.
func mergeCase(mix string, universe int) benchCase {
	return benchCase{
		name: "membership/merge/" + mix,
		gate: true, maxAllocs: 0,
		fn: func(b *testing.B) {
			gen := rng.New(7)
			m, err := membership.NewManager(1, membership.DefaultConfig(), gen.Split())
			if err != nil {
				b.Fatal(err)
			}
			gossips := make([][]proto.ProcessID, 64)
			for i := range gossips {
				gossips[i] = make([]proto.ProcessID, 16)
				for j := range gossips[i] {
					gossips[i][j] = proto.ProcessID(1 + gen.Intn(universe))
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ApplySubs(gossips[i%len(gossips)])
			}
		},
	}
}

// The buffer/* cells are the delivery path's buffer operations at
// core.DefaultConfig's sizes, under an absolute ceiling of 0 allocs/op;
// `go test -bench 'Digest|Archive' ./internal/buffer` runs the three that
// work on one hot structure.

// subsTruncateCase is the end of phase 2 (Fig. 1(a)) as an idle process of
// a large system meets it: a subs buffer of 47 identifiers — |subs|m = 15
// plus one gossip's inflow and the view's evictees, drawn from 25 000
// processes — truncated to 15 by 32 random evictions. One op appends 32
// identifiers to the 15 the last one left and truncates; evict_ns is the op
// over its evictions.
func subsTruncateCase() benchCase {
	return benchCase{
		name: "buffer/subs-truncate",
		gate: true, maxAllocs: 0,
		fn: func(b *testing.B) {
			const from, to = 47, 15
			gen := rng.New(7)
			ids := gen.Sample(25_000, 64*from) // distinct, so every append lands
			l := buffer.NewPIDList()
			l.Grow(from)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fill := ids[i%64*from:][:from]
				for _, id := range fill[l.Len():] {
					var none buffer.PIDFilter // rules the id out: a plain append
					l.AddIn(proto.ProcessID(1+id), &none)
				}
				l.TruncateRandomDiscard(to, gen)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(from-to), "evict_ns")
		},
	}
}

// digestContainsCase is Engine.knows under a steady load: 250 origins,
// nine lookups in ten for an id at or below its origin's watermark, the
// rest for the next one nobody has yet.
func digestContainsCase() benchCase {
	return benchCase{
		name: "buffer/digest-contains",
		gate: true, maxAllocs: 0,
		fn: func(b *testing.B) {
			d := buffer.NewCompactDigest()
			gen := rng.New(7)
			for o := 1; o <= 250; o++ {
				for seq := uint64(1); seq <= 8; seq++ {
					d.Add(proto.EventID{Origin: proto.ProcessID(o), Seq: seq})
				}
			}
			ids := make([]proto.EventID, 1024)
			for i := range ids {
				ids[i] = proto.EventID{Origin: proto.ProcessID(1 + gen.Intn(250)), Seq: uint64(1 + gen.Intn(8))}
				if i%10 == 0 {
					ids[i].Seq = 9
				}
			}
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d.Contains(ids[i%len(ids)]) {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hit_ratio")
		},
	}
}

// digestScanColdCase is the digest scan of one gossip reception as the
// simulator meets it: 1000 processes' digests of 250 origins each (9 MB of
// tables, far more than the core's own caches hold) visited round-robin, one
// batched difference over a 60-id digest each, one id in twenty new. One op
// is one scan; id_ns is the scan over its sixty ids, to set beside
// buffer/digest-contains, which probes one table that never leaves the
// cache. table_bytes is the live heap of one such digest, grow_allocs and
// grow_bytes what it allocated on the way, outgrown tables included.
func digestScanColdCase() benchCase {
	return benchCase{
		name: "buffer/digest-scan-cold",
		gate: true, maxAllocs: 0,
		fn: func(b *testing.B) {
			const digestLen = 60
			gen := rng.New(7)
			digests := make([]buffer.CompactDigest, 1000)
			before := readHeap()
			for i := range digests {
				for o := 1; o <= 250; o++ {
					for seq := uint64(1); seq <= 8; seq++ {
						digests[i].Add(proto.EventID{Origin: proto.ProcessID(o), Seq: seq})
					}
				}
			}
			built := readHeap()
			scans := make([][]proto.EventID, 64)
			for i := range scans {
				scans[i] = make([]proto.EventID, digestLen)
				for j := range scans[i] {
					scans[i][j] = proto.EventID{Origin: proto.ProcessID(1 + gen.Intn(250)), Seq: uint64(1 + gen.Intn(8))}
					if j%20 == 0 {
						scans[i][j].Seq = 9
					}
				}
			}
			missing := make([]proto.EventID, 0, digestLen)
			found := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				missing = digests[i%len(digests)].AppendMissing(missing[:0], scans[i%len(scans)])
				found += len(missing)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/digestLen, "id_ns")
			b.ReportMetric(float64(found)/float64(b.N), "missing_per_scan")
			b.ReportMetric(float64(built.HeapAlloc-before.HeapAlloc)/float64(len(digests)), "table_bytes")
			b.ReportMetric(float64(built.Mallocs-before.Mallocs)/float64(len(digests)), "grow_allocs")
			b.ReportMetric(float64(built.TotalAlloc-before.TotalAlloc)/float64(len(digests)), "grow_bytes")
		},
	}
}

// readHeap returns the heap's counters after a collection.
func readHeap() (ms runtime.MemStats) {
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms
}

// archiveStoreFullCase is one delivery's Store on an archive at its bound:
// the oldest event goes, the new one takes its place. table_bytes is the
// full archive's live heap: the id ring, its index and, once a payload has
// been stored, the payloads' side ring. With payload 0 the events carry none,
// as in the simulator; with 64 they carry 64 bytes, as in a live node, drawn
// from a pool made beforehand, so neither the op nor table_bytes counts them.
func archiveStoreFullCase(payload int) benchCase {
	name := "buffer/archive-store-full"
	if payload > 0 {
		name += fmt.Sprintf("/payload=%d", payload)
	}
	return benchCase{
		name: name,
		gate: true, maxAllocs: 0,
		fn: func(b *testing.B) {
			var payloads [256][]byte
			if payload > 0 {
				for i := range payloads {
					payloads[i] = make([]byte, payload)
				}
			}
			before := readHeap()
			a := buffer.NewArchive(200)
			seq := uint64(0)
			store := func() {
				seq++
				a.Store(proto.Event{ID: proto.EventID{Origin: proto.ProcessID(seq % 250), Seq: seq}, Payload: payloads[seq%256]})
			}
			for i := 0; i < 400; i++ {
				store()
			}
			full := readHeap()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store()
			}
			b.ReportMetric(float64(full.HeapAlloc-before.HeapAlloc), "table_bytes")
		},
	}
}

// archiveLookupCase is one id of a retransmission request served from a
// full archive; one id in four has been evicted already.
func archiveLookupCase() benchCase {
	return benchCase{
		name: "buffer/archive-lookup",
		gate: true, maxAllocs: 0,
		fn: func(b *testing.B) {
			a := buffer.NewArchive(200)
			ids := make([]proto.EventID, 256)
			for i := range ids {
				ids[i] = proto.EventID{Origin: proto.ProcessID(i % 250), Seq: uint64(i + 1)}
				a.Store(proto.Event{ID: ids[i]})
			}
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := a.Lookup(ids[i*7%len(ids)]); ok {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hit_ratio")
		},
	}
}

// archiveServeCase is one retransmission request served from a full archive
// of 200 at core.DefaultConfig's sizes. A pull of 3 is answered by a scan
// from the newest end. Its ids sit where the pulls of the benchmark's
// sim-loaded-seq workload find theirs: 89 in 100 among the newest 20, 10
// among the next 20, 1 among the 20 after (there 97 % of requests name at
// most 8 ids, 86 % at most 3, and 99.9 % of the ids named are among the
// newest 60). A hostile request of 20 000 names ids evicted long ago and,
// last, one held id, so it is resolved against the window's table. The
// reply is the op's one allocation.
func archiveServeCase(name string, ids int) benchCase {
	return benchCase{
		name: "buffer/archive-serve/" + name,
		gate: true, maxAllocs: 1,
		fn: func(b *testing.B) {
			a := buffer.NewArchive(200)
			const stored = 30_000
			for seq := uint64(1); seq <= stored; seq++ {
				a.Store(proto.Event{ID: proto.EventID{Origin: proto.ProcessID(seq % 250), Seq: seq}})
			}
			gen := rng.New(7)
			reqs := make([][]proto.EventID, 64)
			for i := range reqs {
				reqs[i] = make([]proto.EventID, ids)
				for j := range reqs[i] {
					depth := gen.Intn(20)
					switch r := gen.Intn(100); {
					case r == 99:
						depth += 40
					case r >= 89:
						depth += 20
					}
					seq := uint64(stored - depth)
					if ids > 3 && j < ids-1 {
						seq = uint64(1 + gen.Intn(stored-200)) // evicted
					}
					reqs[i][j] = proto.EventID{Origin: proto.ProcessID(seq % 250), Seq: seq}
				}
			}
			served := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reply, _ := a.Serve(reqs[i%len(reqs)])
				served += len(reply)
			}
			b.ReportMetric(float64(served)/float64(b.N), "served_per_op")
		},
	}
}

// infectionCase is a full infection experiment at scale: one op is pooled
// construction of n processes, one publish and 12 gossip rounds.
// heap_bytes_per_process — gated — is the live heap the last op's cluster
// holds at the end, every process infected, over n.
func infectionCase(name string, n int) benchCase {
	return benchCase{
		name: name,
		gate: true, maxAllocs: -1,
		fn: func(b *testing.B) {
			o := sim.DefaultOptions(n)
			o.Seed = 3
			o.Workers = benchWorkers()
			o.Lpbcast.AssumeFromDigest = true
			o.Horizon = 12
			m0 := readHeap()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := sim.NewCluster(o)
				if err != nil {
					b.Fatal(err)
				}
				traced, err := c.PublishAt(0)
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r < 12; r++ {
					c.RunRound()
				}
				if i == b.N-1 {
					b.StopTimer()
					b.ReportMetric(float64(c.DeliveredCount(traced.ID)), "infected@round12")
					b.ReportMetric((float64(readHeap().HeapAlloc)-float64(m0.HeapAlloc))/float64(n), "heap_bytes_per_process")
				}
				c.Close()
			}
		},
	}
}

// setupCase measures bulk cluster construction: one op is a full
// NewCluster at the infection scale, and setup_allocs_per_op — the gated
// metric — is the heap allocation count of that construction, measured
// with runtime.MemStats around the timed loop (testing's allocs/op is
// reported too, but the explicit metric survives name-independent
// regression comparison). setup_allocs_per_proc is the per-process view,
// the identity layer's headline number. bytes_per_process, gated too, is
// the live heap of one built cluster that has not run a round, over n.
func setupCase(n int) benchCase {
	return benchCase{
		name: fmt.Sprintf("executor/setup/n=%d", n),
		gate: true, maxAllocs: -1,
		fn: func(b *testing.B) {
			o := sim.DefaultOptions(n)
			o.Seed = 3
			o.Workers = benchWorkers()
			o.Lpbcast.AssumeFromDigest = true
			var m1 runtime.MemStats
			m0 := readHeap()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := sim.NewCluster(o)
				if err != nil {
					b.Fatal(err)
				}
				c.Close()
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			perOp := float64(m1.Mallocs-m0.Mallocs) / float64(b.N)
			b.ReportMetric(perOp, "setup_allocs_per_op")
			b.ReportMetric(perOp/float64(n), "setup_allocs_per_proc")
			empty := readHeap()
			c, err := sim.NewCluster(o)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric((float64(readHeap().HeapAlloc)-float64(empty.HeapAlloc))/float64(n), "bytes_per_process")
			c.Close()
		},
	}
}

// pubsubSteadyCase measures one quiescent round of a warmed multi-topic
// pubsub.Bus: every topic's lpbcast instance ticks, gossip fans out
// through the shared routing path, and the retained queue/tally buffers
// absorb the traffic. The absolute two-alloc ceiling is the pub/sub
// acceptance criterion — the Bus must stay on the zero-alloc executor
// discipline even when the round spans many topic groups. The wan
// flavor splits the subscribers across a two-cluster topology with 1-2
// round WAN delays (every topic's seed member is on the first side), so
// the cross-site traffic goes through the in-flight ring, under the same
// ceiling.
func pubsubSteadyCase(quick, wan bool) benchCase {
	topics, subs, warm := 16, 400, 40
	if quick {
		topics, subs, warm = 8, 80, 20
	}
	cfg := pubsub.Config{Seed: 7}
	kind := ""
	if wan {
		cfg.Topology = fault.TwoCluster{
			Split: proto.ProcessID(subs / 2),
			Local: fault.LinkProfile{Epsilon: -1},
			WAN:   fault.LinkProfile{Epsilon: -1, MinDelay: 1, MaxDelay: 2},
		}
		kind = "delay=wan/"
	}
	var bus *pubsub.Bus // built once, reused across b.N scaling runs
	return benchCase{
		name:      fmt.Sprintf("executor/pubsub-steady-round/%stopics=%d/n=%d", kind, topics, subs),
		gate:      true,
		maxAllocs: 2,
		fn: func(b *testing.B) {
			if bus == nil {
				var err error
				bus, err = pubsub.NewBus(cfg)
				if err != nil {
					b.Fatal(err)
				}
				w := pubsub.Workload{Topics: topics, Subscribers: subs, S: 1.0, Seed: 5}
				if _, err := w.Deploy(bus, nil); err != nil {
					b.Fatal(err)
				}
				bus.StepN(warm)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bus.Step()
			}
			b.StopTimer()
			if err := bus.TotalNetStats().Conserved(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(topics), "topics")
		},
	}
}

// pubsubInfectionCase runs the full Zipf-popularity dissemination
// experiment: subscribers spread over topic groups by popularity rank,
// one event published on the hottest topic, infection traced until it
// saturates the group. Gated relative to its own baseline only — the
// experiment allocates by design (fresh Bus per repetition).
func pubsubInfectionCase(quick bool) benchCase {
	topics, subs := 16, 2_000
	if quick {
		topics, subs = 8, 200
	}
	return benchCase{
		name:      fmt.Sprintf("executor/pubsub-infection/topics=%d/n=%d", topics, subs),
		gate:      true,
		maxAllocs: -1,
		fn: func(b *testing.B) {
			opts := sim.TopicOptions{
				Subscribers:  subs,
				Topics:       topics,
				ZipfS:        1.0,
				Seed:         3,
				Epsilon:      0.01,
				WarmupRounds: 5,
			}
			opts.Engine = core.DefaultConfig()
			opts.Engine.AssumeFromDigest = true
			var infected, population float64
			for i := 0; i < b.N; i++ {
				res, err := sim.TopicExperiment(opts, 12, 1)
				if err != nil {
					b.Fatal(err)
				}
				infected = res.PerRound[len(res.PerRound)-1]
				population = float64(res.Population)
			}
			b.ReportMetric(infected, "infected@round12")
			b.ReportMetric(population, "hot-topic-subs")
		},
	}
}

// liveSuite builds the runtime transport benchmarks.
func liveSuite(quick bool) []benchCase {
	peers := 15
	perPeer := 3
	if quick {
		peers = 4
	}
	return []benchCase{
		{
			// One gossip round's worth of UDP traffic: perPeer messages to
			// each of peers destinations, packed into one container
			// datagram per destination. Exercises the lock-free stats
			// counters on the datagram path. The sender encodes into its
			// retained buffer and the sinks are never served: no reader runs,
			// their datagrams wait in (and overflow) the kernel's socket
			// buffers, and the steady state allocates nothing.
			name: fmt.Sprintf("live/udp-sendbatch/peers=%d", peers),
			gate: true, maxAllocs: 2,
			fn: func(b *testing.B) {
				src, err := transport.NewUDP(1, "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer src.Close()
				sinks := make([]*transport.UDP, peers)
				var burst []proto.Message
				for i := range sinks {
					id := proto.ProcessID(i + 2)
					p, err := transport.NewUDP(id, "127.0.0.1:0")
					if err != nil {
						b.Fatal(err)
					}
					defer p.Close()
					sinks[i] = p
					if err := src.AddPeer(id, p.LocalAddr()); err != nil {
						b.Fatal(err)
					}
					for k := 0; k < perPeer; k++ {
						burst = append(burst, proto.Message{
							Kind: proto.GossipMsg, From: 1, To: id,
							Gossip: &proto.Gossip{
								From:   1,
								Subs:   []proto.ProcessID{1},
								Digest: []proto.EventID{{Origin: 1, Seq: uint64(k + 1)}},
							},
						})
					}
				}
				before := src.Stats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := src.SendBatch(burst); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				after := src.Stats()
				b.ReportMetric(float64(after.Datagrams-before.Datagrams)/float64(b.N), "datagrams/op")
				b.ReportMetric(float64(len(burst)), "messages/op")
			},
		},
		{
			// The observable live node: a started node with the control
			// plane's latency collector attached as its tracer, fed bursts
			// of already-known gossip through the in-process fabric. Each
			// op is one 3-message inbound round crossing transport, run
			// loop, engine, and trace path; the absolute allocs ceiling
			// proves metrics stay free on the hot path.
			name: "live/ctl-node-round/burst=3",
			gate: true, maxAllocs: 2,
			fn: func(b *testing.B) {
				network := lpbcast.NewInprocNetwork(lpbcast.InprocConfig{Seed: 9})
				defer network.Close()
				ep, err := network.Attach(1)
				if err != nil {
					b.Fatal(err)
				}
				peer, err := network.Attach(2)
				if err != nil {
					b.Fatal(err)
				}
				col := lpbcast.NewLatencyCollector()
				node, err := lpbcast.NewNode(1, ep,
					lpbcast.WithTracer(col),
					lpbcast.WithSeeds(2),
					lpbcast.WithGossipInterval(time.Hour), // rounds are driven below
					lpbcast.WithDeliveryHandler(func(lpbcast.Event) {}),
				)
				if err != nil {
					b.Fatal(err)
				}
				node.Start()
				defer node.Close()
				ev, err := node.Publish([]byte("steady"))
				if err != nil {
					b.Fatal(err)
				}
				g := &proto.Gossip{
					From:   2,
					Subs:   []proto.ProcessID{2},
					Events: []proto.Event{{ID: ev.ID, Payload: []byte("steady")}},
					Digest: []proto.EventID{ev.ID},
				}
				burst := make([]proto.Message, 3)
				for i := range burst {
					burst[i] = proto.Message{Kind: proto.GossipMsg, From: 2, To: 1, Gossip: g}
				}
				// round sends one burst and spins until the node has consumed
				// it; Stats takes a mutex and allocates nothing. The count to
				// wait for is cumulative from before the first send: the node
				// may consume part of a burst before SendBatch returns, and a
				// baseline read after the send would then wait for gossips
				// that never come.
				want := node.Stats().GossipsReceived
				round := func() {
					if err := peer.SendBatch(burst); err != nil {
						b.Fatal(err)
					}
					want += uint64(len(burst))
					deadline := time.Now().Add(10 * time.Second)
					for spins := 1; node.Stats().GossipsReceived < want; spins++ {
						if spins%4096 == 0 && time.Now().After(deadline) {
							b.Fatalf("node consumed %d of %d gossips sent", node.Stats().GossipsReceived, want)
						}
						runtime.Gosched()
					}
				}
				for i := 0; i < 4; i++ { // warm scratch buffers
					round()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round()
				}
				b.StopTimer()
				b.ReportMetric(float64(len(burst)), "messages/op")
			},
		},
		{
			// End-to-end latency of the goroutine-per-node runtime: one
			// publish reaching a far node through timer-driven gossip.
			// Timing- and scheduler-dependent, so reported but never gated.
			name: fmt.Sprintf("live/inproc-broadcast/n=%d", clusterN(quick)),
			gate: false, maxAllocs: -1,
			fn: func(b *testing.B) {
				n := clusterN(quick)
				cluster, err := lpbcast.NewCluster(lpbcast.ClusterConfig{
					N:              n,
					GossipInterval: 2 * time.Millisecond,
					Seed:           1,
					NodeOptions:    []lpbcast.Option{lpbcast.WithViewSize(8)},
				})
				if err != nil {
					b.Fatal(err)
				}
				defer cluster.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev, err := cluster.Node(lpbcast.ProcessID(i%n + 1)).Publish([]byte("bench"))
					if err != nil {
						b.Fatal(err)
					}
					target := lpbcast.ProcessID((i+n/2)%n + 1)
					if !cluster.AwaitDelivery(target, ev.ID, 5*time.Second) {
						b.Fatalf("delivery %d timed out", i)
					}
				}
			},
		},
	}
}

// clusterN sizes the in-process broadcast cluster.
func clusterN(quick bool) int {
	if quick {
		return 8
	}
	return 32
}
