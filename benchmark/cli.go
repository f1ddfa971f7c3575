package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"

	"repro/internal/core"
	"repro/internal/stats"
)

// runSeconds is the window the benchmark is declared with in BENCHMARK.json.
const runSeconds = 10

// describeJSON renders BENCHMARK.json from the workload and metric tables.
func describeJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// verifyPeriods is how long -verify runs each workload.
const verifyPeriods = 40

// fingerprint is everything a deterministic workload must repeat exactly.
type fingerprint struct {
	net                 stats.NetStats
	topics              []stats.NetStats
	eng                 core.Stats
	hist                latencyHist
	delivered, possible uint64
}

func (a *fingerprint) diff(b *fingerprint) []string {
	var out []string
	if a.net != b.net {
		out = append(out, fmt.Sprintf("NetStats differ: %+v vs %+v", a.net, b.net))
	}
	if !reflect.DeepEqual(a.topics, b.topics) {
		out = append(out, "per-topic NetStats differ")
	}
	if a.eng != b.eng {
		out = append(out, fmt.Sprintf("summed core.Stats differ: %+v vs %+v", a.eng, b.eng))
	}
	if !a.hist.equal(&b.hist) {
		out = append(out, fmt.Sprintf("deliver_ms histograms differ: %v vs %v", a.hist.buckets, b.hist.buckets))
	}
	if a.delivered != b.delivered || a.possible != b.possible {
		out = append(out, fmt.Sprintf("delivered/possible differ: %d/%d vs %d/%d", a.delivered, a.possible, b.delivered, b.possible))
	}
	return out
}

// fingerprintOf runs one sim or bus workload for verifyPeriods periods
// after its warm-up and returns what it produced. ok is false for the live
// workload, which runs in wall time and cannot repeat.
func fingerprintOf(name string, p params) (fp *fingerprint, ok bool, err error) {
	seed := newGen(p.seed, "sim-seed").next()
	switch name {
	case wSeq, wWan:
		spec := &seqSpec
		if name == wWan {
			spec = &wanSpec
		}
		warm := spec.warmupPeriods(p)
		r, err := newSimRun(spec, p, seed, warm+verifyPeriods, nil)
		if err != nil {
			return nil, true, err
		}
		defer r.c.Close()
		for i := 0; i < warm; i++ {
			r.runPeriod(nil, false)
		}
		for i := 0; i < verifyPeriods; i++ {
			r.runPeriod(nil, true)
		}
		if err := r.c.NetStats().Conserved(); err != nil {
			return nil, true, err
		}
		return &fingerprint{net: r.c.NetStats(), eng: r.engineStats(), hist: r.hist,
			delivered: r.delivered, possible: r.possible}, true, nil
	case wScale:
		n := p.scale(scaleN)
		res := newResult(name)
		fp := &fingerprint{}
		for rep := 0; rep*scalePeriods < verifyPeriods; rep++ {
			r := runScaleRep(n, shardWorkers(), seed+uint64(rep), newGen(p.seed, "origins").intn(n), nil, nil, &fp.hist, res)
			if r == nil {
				return nil, true, fmt.Errorf("%s", res.problems)
			}
			ns := r.c.NetStats()
			fp.net.Merge(ns)
			for i := 0; i < n; i++ {
				if e, ok := r.c.Process(i).(*core.Engine); ok {
					addStats(&fp.eng, e.Stats())
				}
			}
			fp.delivered += uint64(r.delivered)
			fp.possible += uint64(n)
			r.c.Close()
		}
		return fp, true, nil
	case wBus:
		r, _, err := warmBus(p, nil)
		if err != nil {
			return nil, true, err
		}
		for i := 0; i < verifyPeriods; i++ {
			r.runStep(nil, true)
		}
		res := newResult(name)
		r.conserved(res)
		if !res.correct() {
			return nil, true, fmt.Errorf("%s", res.problems)
		}
		fp := &fingerprint{net: r.bus.TotalNetStats(), hist: r.hist, delivered: r.delivered, possible: r.possible}
		for _, t := range r.names {
			fp.topics = append(fp.topics, r.bus.NetStats(t))
		}
		return fp, true, nil
	}
	return nil, false, nil
}

// runVerify is the check a simulator speed-up must pass: two runs of one
// seed produce identical simulated statistics.
func runVerify(out io.Writer, selected []workload, p params) bool {
	ok := true
	for _, w := range selected {
		a, applies, err := fingerprintOf(w.name, p)
		if !applies {
			fmt.Fprintf(out, "verify %-20s skipped: runs in wall time\n", w.name)
			continue
		}
		var b *fingerprint
		if err == nil {
			b, _, err = fingerprintOf(w.name, p)
		}
		if err != nil {
			fmt.Fprintf(out, "verify %-20s FAILED: %v\n", w.name, err)
			ok = false
			continue
		}
		if d := a.diff(b); len(d) > 0 {
			ok = false
			for _, line := range d {
				fmt.Fprintf(out, "verify %-20s FAILED: %s\n", w.name, line)
			}
			continue
		}
		fmt.Fprintf(out, "verify %-20s ok: %d periods twice, sent=%d delivered=%d/%d latency samples=%d identical\n",
			w.name, verifyPeriods, a.net.Sent, a.delivered, a.possible, a.hist.total)
	}
	return ok
}

// runSelfcheck runs the measured set twice back to back and holds every
// end-to-end metric × workload to the benchmark's own bound.
func runSelfcheck(out io.Writer, selected []workload, p params) bool {
	ok := true
	pass := func(n int) []*result {
		var rs []*result
		for _, w := range selected {
			res := w.run(p)
			if !res.correct() {
				fmt.Fprintf(out, "selfcheck pass %d %s: incorrect: %v\n", n, w.name, res.problems)
				ok = false
			}
			rs = append(rs, res)
		}
		return rs
	}
	first, second := pass(1), pass(2)
	fmt.Fprintf(out, "%-20s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for i, w := range selected {
		for _, m := range endToEnd {
			a, b := first[i].metrics[m.name], second[i].metrics[m.name]
			rel := 0.0
			if a != 0 {
				rel = (b - a) / math.Abs(a)
			}
			verdict := ""
			if math.Abs(rel) > m.bound {
				verdict = "  BREACH"
				ok = false
			}
			fmt.Fprintf(out, "%-20s %-24s %14.6g %14.6g %+9.4f %7.3f%s\n", w.name, m.name, a, b, rel, m.bound, verdict)
		}
	}
	return ok
}
