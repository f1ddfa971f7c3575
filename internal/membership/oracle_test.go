package membership

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/idmap"
	"repro/internal/proto"
	"repro/internal/rng"
)

// The reference below is gossip reception's membership half as it stood
// before the one-pass merge: Contains-then-Add per incoming id, an identity
// candidate list rebuilt per eviction, a subs scan per evictee, and unSubs as
// a plain list refreshed by removing and re-appending. It is kept verbatim
// (only renamed; the unSubs list was buffer.UnsubList until that list got a
// reference of its own here) because it defines the draw-identity contract
// (docs/ARCHITECTURE.md): Manager may find a victim any way it likes, but
// it must consume the draws this code consumes, in this order, and leave
// view, weights, subs and unSubs in this order. Do not optimise it.
//
// Mutations of the Weighted truncateSubs (weights read once per call into a
// side list) seen caught, each printing seed and config: the victim's weight
// left in the side list, or deleted by a swap with the last; ties not reset
// when a heavier entry takes over; the victim's position off by one; a draw
// taken where a heavier entry takes over; an equal weight taking over without
// a draw; the weights read for the wrong entries; the weights read for the
// first 128 entries only (caught by the one config whose subs passes 128).

type oracleView struct {
	owner       proto.ProcessID
	list        []Entry
	candScratch []int
	bestScratch []int
	removed     []proto.ProcessID
	keepBits    idmap.Bitset
}

func (v *oracleView) indexOf(p proto.ProcessID) int {
	for i := range v.list {
		if v.list[i].Process == p {
			return i
		}
	}
	return -1
}

func (v *oracleView) Add(p proto.ProcessID) bool {
	if p == v.owner || p == proto.NilProcess {
		return false
	}
	if v.indexOf(p) >= 0 {
		return false
	}
	v.list = append(v.list, Entry{Process: p, Weight: 1})
	return true
}

func (v *oracleView) Contains(p proto.ProcessID) bool { return v.indexOf(p) >= 0 }

func (v *oracleView) Remove(p proto.ProcessID) bool {
	i := v.indexOf(p)
	if i < 0 {
		return false
	}
	last := len(v.list) - 1
	if i != last {
		v.list[i] = v.list[last]
	}
	v.list = v.list[:last]
	return true
}

func (v *oracleView) Weight(p proto.ProcessID) int {
	if i := v.indexOf(p); i >= 0 {
		return v.list[i].Weight
	}
	return 0
}

func (v *oracleView) Bump(p proto.ProcessID) bool {
	i := v.indexOf(p)
	if i < 0 {
		return false
	}
	v.list[i].Weight++
	return true
}

func (v *oracleView) removeAt(i int) Entry {
	e := v.list[i]
	last := len(v.list) - 1
	if i != last {
		v.list[i] = v.list[last]
	}
	v.list = v.list[:last]
	return e
}

func (v *oracleView) truncate(max int, keep []proto.ProcessID, weighted bool, r *rng.Source) []proto.ProcessID {
	if max < 0 {
		max = 0
	}
	removed := v.removed[:0]
	if len(v.list) > max && len(keep) > 0 {
		v.keepBits.Clear()
		v.keepBits.Grow(len(v.list))
		for i := range v.list {
			for _, k := range keep {
				if v.list[i].Process == k {
					v.keepBits.Set(i)
					break
				}
			}
		}
	}
	for len(v.list) > max {
		cands := v.candScratch[:0]
		if len(keep) == 0 {
			for i := range v.list {
				cands = append(cands, i)
			}
		} else {
			for i := range v.list {
				if !v.keepBits.Get(i) {
					cands = append(cands, i)
				}
			}
		}
		v.candScratch = cands
		if len(cands) == 0 {
			break
		}
		var victim int
		if weighted {
			best := v.bestScratch[:0]
			best = append(best, cands[0])
			for _, i := range cands[1:] {
				switch w := v.list[i].Weight; {
				case w > v.list[best[0]].Weight:
					best = best[:1]
					best[0] = i
				case w == v.list[best[0]].Weight:
					best = append(best, i)
				}
			}
			v.bestScratch = best
			victim = best[r.Intn(len(best))]
		} else {
			victim = cands[r.Intn(len(cands))]
		}
		if len(keep) > 0 {
			v.keepBits.Move(len(v.list)-1, victim)
		}
		e := v.removeAt(victim)
		removed = append(removed, e.Process)
	}
	v.removed = removed
	return removed
}

type oraclePIDList struct{ items []proto.ProcessID }

func (l *oraclePIDList) indexOf(p proto.ProcessID) int {
	for i, q := range l.items {
		if q == p {
			return i
		}
	}
	return -1
}

func (l *oraclePIDList) Add(p proto.ProcessID) bool {
	if l.indexOf(p) >= 0 {
		return false
	}
	l.items = append(l.items, p)
	return true
}

func (l *oraclePIDList) Remove(p proto.ProcessID) bool {
	i := l.indexOf(p)
	if i < 0 {
		return false
	}
	l.items = append(l.items[:i], l.items[i+1:]...)
	return true
}

func (l *oraclePIDList) TruncateRandomDiscard(max int, r *rng.Source) int {
	if max < 0 {
		max = 0
	}
	n := 0
	for len(l.items) > max {
		i := r.Intn(len(l.items))
		l.items = append(l.items[:i], l.items[i+1:]...)
		n++
	}
	return n
}

// oracleUnsubList is unSubs: one unsubscription a process, a newer stamp
// replacing the held one at the end of the list.
type oracleUnsubList struct{ items []proto.Unsubscription }

func (l *oracleUnsubList) Add(u proto.Unsubscription) {
	for i, held := range l.items {
		if held.Process == u.Process {
			if u.Stamp > held.Stamp {
				l.items = append(l.items[:i], l.items[i+1:]...)
				l.items = append(l.items, u)
			}
			return
		}
	}
	l.items = append(l.items, u)
}

func (l *oracleUnsubList) Len() int { return len(l.items) }

func (l *oracleUnsubList) Expire(now, ttl uint64) {
	if now < ttl {
		return
	}
	for i := len(l.items) - 1; i >= 0; i-- {
		if l.items[i].Stamp < now-ttl {
			l.items = append(l.items[:i], l.items[i+1:]...)
		}
	}
}

func (l *oracleUnsubList) TruncateRandomDiscard(max int, r *rng.Source) {
	for len(l.items) > max {
		i := r.Intn(len(l.items))
		l.items = append(l.items[:i], l.items[i+1:]...)
	}
}

type oracleManager struct {
	self         proto.ProcessID
	cfg          Config
	view         oracleView
	subs         oraclePIDList
	unsubs       oracleUnsubList
	keep         []proto.ProcessID
	rng          *rng.Source
	unsubscribed bool
}

func newOracleManager(self proto.ProcessID, cfg Config, r *rng.Source) *oracleManager {
	m := &oracleManager{self: self, cfg: cfg, rng: r}
	m.view.owner = self
	for _, q := range cfg.Prioritary {
		if q != self {
			m.keep = append(m.keep, q)
			m.view.Add(q)
		}
	}
	return m
}

func (m *oracleManager) Seed(ps []proto.ProcessID) {
	for _, p := range ps {
		m.view.Add(p)
	}
	m.truncateView()
	m.truncateSubs()
}

func (m *oracleManager) ApplyUnsubs(unsubs []proto.Unsubscription, now uint64) {
	for _, u := range unsubs {
		if u.Process == m.self {
			if !m.unsubscribed {
				continue
			}
		}
		if m.cfg.UnsubTTL > 0 && now >= m.cfg.UnsubTTL && u.Stamp < now-m.cfg.UnsubTTL {
			continue // obsolete
		}
		m.view.Remove(u.Process)
		m.subs.Remove(u.Process)
		m.unsubs.Add(u)
	}
	m.unsubs.Expire(now, m.cfg.UnsubTTL)
	m.unsubs.TruncateRandomDiscard(m.cfg.MaxUnsubs, m.rng)
}

func (m *oracleManager) ApplySubs(subs []proto.ProcessID) {
	for _, p := range subs {
		if p == m.self || p == proto.NilProcess {
			continue
		}
		if m.view.Contains(p) {
			if m.cfg.Policy == Weighted {
				m.view.Bump(p)
			}
			continue
		}
		m.view.Add(p)
		m.subs.Add(p)
	}
	m.truncateView()
	m.truncateSubs()
}

func (m *oracleManager) truncateView() {
	removed := m.view.truncate(m.cfg.MaxView, m.keep, m.cfg.Policy == Weighted, m.rng)
	for _, p := range removed {
		m.subs.Add(p)
	}
}

func (m *oracleManager) truncateSubs() {
	if m.cfg.Policy != Weighted {
		m.subs.TruncateRandomDiscard(m.cfg.MaxSubs, m.rng)
		return
	}
	for len(m.subs.items) > m.cfg.MaxSubs {
		victim := m.subs.items[0]
		best := m.view.Weight(victim)
		ties := 1
		for i, ln := 1, len(m.subs.items); i < ln; i++ {
			p := m.subs.items[i]
			w := m.view.Weight(p)
			switch {
			case w > best:
				victim, best, ties = p, w, 1
			case w == best:
				ties++
				if m.rng.Intn(ties) == 0 {
					victim = p
				}
			}
		}
		m.subs.Remove(victim)
	}
}

func (m *oracleManager) Unsubscribe(now uint64) error {
	if m.cfg.UnsubRefusalLen > 0 && m.unsubs.Len() >= m.cfg.UnsubRefusalLen {
		return ErrUnsubRefused
	}
	m.unsubscribed = true
	m.unsubs.Add(proto.Unsubscription{Process: m.self, Stamp: now})
	return nil
}

// oracleConfigs spans both policies, with and without a prioritary set,
// over the paper's bounds, bounds small enough that every call truncates
// both buffers, and bounds whose transient view passes 64 positions (where
// the batched subs truncation hands over to the per-eviction loop, and where
// a view truncation takes more than one batch of draws). The {60, 70} rows
// index a gossip in the manager's scratch, the others on the stack, and
// runOracleOps' hostile gossip needs a table made for it.
// The last two rows let subs pass 128 entries before it is truncated: under
// Weighted the weights read once per call then outgrow their place on the
// stack.
func oracleConfigs() []Config {
	mk := func(view, subs int, pol Policy, prio []proto.ProcessID) Config {
		cfg := DefaultConfig()
		cfg.MaxView, cfg.MaxSubs, cfg.MaxUnsubs = view, subs, 4
		cfg.UnsubTTL, cfg.UnsubRefusalLen = 20, 3
		cfg.Policy, cfg.Prioritary = pol, prio
		return cfg
	}
	var out []Config
	for _, b := range [][2]int{{15, 15}, {4, 3}, {30, 36}} {
		for _, pol := range []Policy{Uniform, Weighted} {
			for _, prio := range [][]proto.ProcessID{nil, {2, 3}} {
				out = append(out, mk(b[0], b[1], pol, prio))
			}
		}
	}
	// One row a policy: the reference scans the view per entry per eviction.
	return append(out, mk(60, 70, Weighted, nil), mk(60, 70, Uniform, nil))
}

// diffOracle reports the first difference between the manager and the
// reference, or "".
func diffOracle(m *Manager, o *oracleManager) string {
	if got := m.view.Entries(); !slices.Equal(got, o.view.list) {
		return fmt.Sprintf("view %v, want %v", got, o.view.list)
	}
	same := m.subs.Len() == len(o.subs.items)
	for i := 0; same && i < len(o.subs.items); i++ {
		same = m.subs.At(i) == o.subs.items[i]
	}
	if !same {
		return fmt.Sprintf("subs %v, want %v", m.subs.AppendItems(nil), o.subs.items)
	}
	if got := m.unsubs.AppendItems(nil); !slices.Equal(got, o.unsubs.items) || m.unsubscribed != o.unsubscribed {
		return fmt.Sprintf("unsubs %v (left %v), want %v (left %v)", got, m.unsubscribed, o.unsubs.items, o.unsubscribed)
	}
	if m.rng.State() != o.rng.State() {
		return fmt.Sprintf("rng state %#x, want %#x", m.rng.State(), o.rng.State())
	}
	return ""
}

// runOracleSequence drives one random op sequence through both
// implementations and returns a description of the first divergence.
func runOracleSequence(seed uint64, cfg Config, ops int) string {
	return runOracleOps(rng.New(seed), seed^0xabcdef, cfg, ops)
}

// runOracleOps is runOracleSequence with the ops drawn from gen, whose
// draws choose every op and argument, and both managers' streams seeded
// with seed.
func runOracleOps(gen interface{ Intn(int) int }, seed uint64, cfg Config, ops int) string {
	m, err := NewManager(1, cfg, rng.New(seed))
	if err != nil {
		return err.Error()
	}
	o := newOracleManager(1, cfg, rng.New(seed))
	// The sequence's id universe: the scale workload's (incoming ids nearly
	// always absent from a view of l) or a group barely larger than the
	// view (nearly always present). One op in eight draws from the other.
	universes := [2]int{25000, cfg.MaxView + 5}
	home := gen.Intn(2)
	pid := func() proto.ProcessID {
		u := universes[home]
		if gen.Intn(8) == 0 {
			u = universes[1-home]
		}
		return proto.ProcessID(gen.Intn(u + 1)) // 0 is NilProcess, 1 is self
	}
	now := uint64(0)
	for step := 0; step < ops; step++ {
		now += uint64(gen.Intn(4))
		var op string // the failing op is printed as op(arg)
		var arg any
		switch k := gen.Intn(16); {
		case k == 0:
			ps := make([]proto.ProcessID, gen.Intn(2*cfg.MaxView+2))
			for i := range ps {
				ps[i] = pid()
			}
			op, arg = "Seed", ps
			m.Seed(ps)
			o.Seed(ps)
		case k == 1:
			us := make([]proto.Unsubscription, gen.Intn(4))
			for i := range us {
				us[i] = proto.Unsubscription{Process: pid(), Stamp: now - uint64(gen.Intn(int(now)+1))}
			}
			op, arg = fmt.Sprintf("ApplyUnsubs@%d", now), us
			m.ApplyUnsubs(us, now)
			o.ApplyUnsubs(us, now)
		case k == 2:
			p := pid()
			op, arg = "view.Remove", p
			if got, want := m.view.Remove(p), o.view.Remove(p); got != want {
				return fmt.Sprintf("step %d %s(%v) = %v, want %v", step, op, arg, got, want)
			}
		case k == 3 && gen.Intn(4) == 0:
			op, arg = "Unsubscribe", now
			if got, want := m.Unsubscribe(now), o.Unsubscribe(now); got != want {
				return fmt.Sprintf("step %d %s(%v) = %v, want %v", step, op, arg, got, want)
			}
		case k == 4: // under Uniform, the first present id makes the weights mid-run
			p := pid()
			op, arg = "Bump", p
			if got, want := m.view.Bump(p), o.view.Bump(p); got != want {
				return fmt.Sprintf("step %d %s(%v) = %v, want %v", step, op, arg, got, want)
			}
		case k == 5: // both phases on one index, now and then a hostile gossip
			us := make([]proto.Unsubscription, gen.Intn(4))
			ps := make([]proto.ProcessID, gen.Intn(cfg.MaxSubs+2))
			if gen.Intn(32) == 0 { // past smallMax unsubscriptions, subs three views long
				us = make([]proto.Unsubscription, 65+gen.Intn(64))
				ps = make([]proto.ProcessID, 3*cfg.MaxView)
			}
			for i := range us {
				us[i] = proto.Unsubscription{Process: pid(), Stamp: now - uint64(gen.Intn(int(now)+1))}
			}
			for i := range ps {
				ps[i] = pid()
			}
			op, arg = fmt.Sprintf("Receive@%d", now), [2]any{us, ps}
			m.Receive(us, ps, now)
			o.ApplyUnsubs(us, now)
			o.ApplySubs(ps)
		default:
			ps := make([]proto.ProcessID, gen.Intn(cfg.MaxSubs+2))
			for i := range ps {
				ps[i] = pid()
			}
			op, arg = "ApplySubs", ps
			m.ApplySubs(ps)
			o.ApplySubs(ps)
		}
		if d := diffOracle(m, o); d != "" {
			return fmt.Sprintf("step %d after %s(%v): %s", step, op, arg, d)
		}
	}
	return ""
}

// TestMergeMatchesOracle is the model-based check of the draw-identity
// contract (ROADMAP 4(c), membership.View): after every op of 12 000
// random sequences (1 200 with -short) the manager's view order and
// weights (Entries, which reads a view without weights as all 1), subs
// order, unSubs and RNG state equal the reference's. A failure prints the
// seed and config index that replay it.
func TestMergeMatchesOracle(t *testing.T) {
	t.Parallel()
	cfgs := oracleConfigs()
	sequences, ops := 12000, 40
	if testing.Short() {
		sequences = 1200 // the PR job runs -short under the race detector
	}
	for s := 0; s < sequences; s++ {
		seed, ci := uint64(s)*0x9e3779b97f4a7c15+1, s%len(cfgs)
		if d := runOracleSequence(seed, cfgs[ci], ops); d != "" {
			t.Fatalf("seed %#x config %d (%+v): %s", seed, ci, cfgs[ci], d)
		}
	}
}

// opBytes turns a fuzzer's bytes into the draws runOracleOps makes: each
// draw reads as many bytes as n−1 has, and reads zeros once they run out.
type opBytes []byte

func (b *opBytes) Intn(n int) int {
	v := 0
	for k := n - 1; k > 0; k >>= 8 {
		v <<= 8
		if len(*b) > 0 {
			v |= int((*b)[0])
			*b = (*b)[1:]
		}
	}
	return v % n
}

// FuzzManager is TestMergeMatchesOracle on op lists the fuzzer writes: the
// first byte picks one of oracleConfigs (both policies, with and without a
// prioritary set), seed seeds both managers' streams, and ops decodes into
// Seed, ApplyUnsubs, view.Remove, Unsubscribe, Bump and ApplySubs calls,
// after each of which the manager must equal the reference.
func FuzzManager(f *testing.F) {
	cfgs := oracleConfigs()
	for ci := range cfgs {
		gen := rng.New(uint64(ci))
		ops := make([]byte, 64*(ci+1))
		for i := range ops {
			ops[i] = byte(gen.Intn(256))
		}
		f.Add(byte(ci), uint64(ci), ops)
	}
	f.Fuzz(func(t *testing.T, pick byte, seed uint64, ops []byte) {
		ci := int(pick) % len(cfgs)
		gen := opBytes(ops)
		if d := runOracleOps(&gen, seed, cfgs[ci], len(ops)/2); d != "" {
			t.Fatalf("config %d (%+v): %s", ci, cfgs[ci], d)
		}
	})
}
