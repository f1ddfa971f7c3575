package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval: a call (or a batch of n equal calls) into a
// layer, the span that caused it, and the operation it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the causing span, -1 for a root
	Op     int64  `json:"op"`     // period (sim, bus) or event number (live)
	N      int64  `json:"n"`      // calls the interval covers
}

// tracer keeps spans in memory; nothing is written before the run ends.
// A nil *tracer records nothing, so the untraced run pays one nil check per
// boundary.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string, op int64) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, int32(len(t.spans)))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, N: 1,
		Start: int64(time.Since(t.epoch))})
}

// end closes the innermost open span, which covered n calls.
func (t *tracer) end(n int64) {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = int64(time.Since(t.epoch))
	t.spans[i].N = n
}

// layerTotals is what the spans of one name add up to.
type layerTotals struct {
	selfNs int64
	calls  int64
	spans  int64
}

// selfTimes returns, per span name, the time spent in spans of that name
// minus the part their direct children cover, and the calls they made.
func selfTimes(spans []span) map[string]layerTotals {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTotals)
	for i, s := range spans {
		t := out[s.Name]
		t.selfNs += s.End - s.Start - child[i]
		t.calls += s.N
		t.spans++
		out[s.Name] = t
	}
	return out
}

// perCall is a layer's self time per call in the given unit (1 for ns,
// 1e3 for µs, 1e6 for ms); 0 when the layer was never entered.
func (l layerTotals) perCall(unitNs float64) float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.selfNs) / float64(l.calls) / unitNs
}

// traceFile is the on-disk form: the spans plus what is needed to read
// them without the benchmark's source.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Host     map[string]string `json:"host"`
	Spans    int               `json:"span_count"`
	Note     string            `json:"note"`
}

// write stores the spans as one JSON header line followed by one span per
// line, so a multi-megabyte trace can be streamed and grepped.
func (t *tracer) write(dir, workload string, seed uint64, host map[string]string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	err = enc.Encode(traceFile{Workload: workload, Seed: seed, Host: host, Spans: len(t.spans),
		Note: "line 1 is this header; every further line is one span; parent is a 0-based span line index, -1 for a root"})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(&t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write trace %s: %w", path, err)
	}
	return path, nil
}
