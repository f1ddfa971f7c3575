// Package fault provides the failure models of the paper's system model
// (§4.1): stochastically independent message loss bounded by ε, and
// process crashes bounded by a fraction τ of the system per run.
// Scheduled crashes, partitions, topologies and delay models extend it for
// the WAN examples and the failure-injection tests.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/idmap"
	"repro/internal/proto"
	"repro/internal/rng"
)

// LossModel decides, per message, whether the network drops it.
type LossModel interface {
	// Drop reports whether a message from src to dst at time now is lost.
	Drop(src, dst proto.ProcessID, now uint64) bool
}

// Bernoulli drops each message independently with probability Epsilon —
// the paper's ε (0.05 in all experiments).
type Bernoulli struct {
	Epsilon float64
	Rand    *rng.Source
}

// NewBernoulli creates a Bernoulli loss model.
func NewBernoulli(epsilon float64, r *rng.Source) *Bernoulli {
	return &Bernoulli{Epsilon: epsilon, Rand: r}
}

// Drop implements LossModel.
func (b *Bernoulli) Drop(_, _ proto.ProcessID, _ uint64) bool {
	return b.Rand.Bool(b.Epsilon)
}

// CrashSchedule decides which processes are crashed at a given time. It
// is keyed on dense indices from an idmap.Table, so the per-message
// Crashed probe in the simulator fabric is two array loads rather than a
// map lookup. Only processes with a scheduled crash occupy the table —
// everybody else misses the forward array and is alive forever.
type CrashSchedule struct {
	idx   idmap.Table
	times []uint64 // times[ix] = earliest scheduled crash for idx.ID(ix)
}

// NewCrashSchedule creates an empty schedule (nobody ever crashes).
func NewCrashSchedule() *CrashSchedule {
	return &CrashSchedule{}
}

// CrashAt schedules p to crash at time t (inclusive). Crashed processes do
// not recover (§4.1: "We do not take into account the recovery of crashed
// processes").
func (s *CrashSchedule) CrashAt(p proto.ProcessID, t uint64) {
	if ix, ok := s.idx.Lookup(p); ok {
		if t < s.times[ix] {
			s.times[ix] = t
		}
		return
	}
	ix := s.idx.Add(p)
	for uint64(len(s.times)) <= uint64(ix) {
		s.times = append(s.times, 0)
	}
	s.times[ix] = t
}

// Crashed reports whether p is crashed at time now.
func (s *CrashSchedule) Crashed(p proto.ProcessID, now uint64) bool {
	ix, ok := s.idx.Lookup(p)
	return ok && now >= s.times[ix]
}

// CrashedCount returns how many processes are crashed at time now.
func (s *CrashSchedule) CrashedCount(now uint64) int {
	n := 0
	for ix, t := range s.times {
		if now >= t && s.idx.ID(idmap.Index(ix)) != proto.NilProcess {
			n++
		}
	}
	return n
}

// SampleCrashes schedules a fraction tau of processes (chosen uniformly
// without replacement) to crash at uniformly random times in [0, horizon].
// This realizes the paper's τ = f/n crash bound for a run of the given
// horizon. It returns the processes selected.
func (s *CrashSchedule) SampleCrashes(processes []proto.ProcessID, tau float64, horizon uint64, r *rng.Source) []proto.ProcessID {
	if tau <= 0 || len(processes) == 0 {
		return nil
	}
	f := int(tau * float64(len(processes)))
	if f <= 0 {
		return nil
	}
	idxs := r.Sample(len(processes), f)
	out := make([]proto.ProcessID, 0, len(idxs))
	for _, i := range idxs {
		p := processes[i]
		t := uint64(0)
		if horizon > 0 {
			t = uint64(r.Intn(int(horizon) + 1))
		}
		s.CrashAt(p, t)
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String implements fmt.Stringer.
func (s *CrashSchedule) String() string {
	return fmt.Sprintf("crashes(%d scheduled)", s.idx.Len())
}
