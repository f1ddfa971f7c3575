package membership

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/rng"
)

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(1, cfg, rng.New(42))
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func TestNewManagerValidation(t *testing.T) {
	t.Parallel()
	r := rng.New(1)
	cases := []struct {
		name string
		self proto.ProcessID
		cfg  Config
		rng  *rng.Source
	}{
		{"zero config", 1, Config{}, r},
		{"nil self", proto.NilProcess, DefaultConfig(), r},
		{"nil rng", 1, DefaultConfig(), nil},
		{"negative view", 1, Config{MaxView: -1, MaxSubs: 1, MaxUnsubs: 1}, r},
		{"no subs room", 1, Config{MaxView: 5, MaxSubs: 0, MaxUnsubs: 1}, r},
		{"no unsubs room", 1, Config{MaxView: 5, MaxSubs: 1, MaxUnsubs: 0}, r},
		{"too many prioritary", 1, Config{MaxView: 2, MaxSubs: 1, MaxUnsubs: 1,
			Prioritary: []proto.ProcessID{2, 3}}, r},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if _, err := NewManager(c.self, c.cfg, c.rng); err == nil {
				t.Errorf("NewManager(%+v) succeeded, want error", c.cfg)
			}
		})
	}
}

func TestSeedTruncates(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.MaxView = 5
	m := newTestManager(t, cfg)
	seeds := make([]proto.ProcessID, 20)
	for i := range seeds {
		seeds[i] = proto.ProcessID(i + 2)
	}
	m.Seed(seeds)
	if m.ViewLen() != 5 {
		t.Fatalf("view size = %d, want 5", m.ViewLen())
	}
}

func TestApplySubsAddsAndTruncates(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.MaxView = 3
	cfg.MaxSubs = 4
	m := newTestManager(t, cfg)
	m.ApplySubs([]proto.ProcessID{2, 3, 4, 5, 6, 1 /* self ignored */, proto.NilProcess})
	if m.ViewLen() != 3 {
		t.Fatalf("view size = %d, want 3", m.ViewLen())
	}
	if holds(m.view, 1) {
		t.Fatal("self in view")
	}
	if m.SubsLen() > cfg.MaxSubs {
		t.Fatalf("subs size = %d exceeds bound %d", m.SubsLen(), cfg.MaxSubs)
	}
	// Evicted view entries must be in subs: everything seen is either in
	// view or (if evicted and subs has room) in subs.
	inView := map[proto.ProcessID]bool{}
	for _, p := range m.View() {
		inView[p] = true
	}
	if len(inView) != 3 {
		t.Fatalf("view = %v", m.View())
	}
}

func TestApplySubsSelfNeverAdded(t *testing.T) {
	t.Parallel()
	m := newTestManager(t, DefaultConfig())
	for i := 0; i < 100; i++ {
		m.ApplySubs([]proto.ProcessID{1})
	}
	if m.ViewLen() != 0 || m.SubsLen() != 0 {
		t.Fatal("self leaked into view or subs")
	}
}

func TestApplyUnsubsRemovesFromView(t *testing.T) {
	t.Parallel()
	m := newTestManager(t, DefaultConfig())
	m.ApplySubs([]proto.ProcessID{2, 3, 4})
	m.ApplyUnsubs([]proto.Unsubscription{{Process: 3, Stamp: 10}}, 10)
	if holds(m.view, 3) {
		t.Fatal("unsubscribed process still in view")
	}
	if m.UnsubsLen() != 1 {
		t.Fatalf("unsubs len = %d, want 1", m.UnsubsLen())
	}
	// The unsubscription must be forwarded.
	us := m.AppendUnsubs(nil, 10)
	if len(us) != 1 || us[0].Process != 3 {
		t.Fatalf("AppendUnsubs = %v", us)
	}
}

func TestApplyUnsubsObsoleteIgnored(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.UnsubTTL = 50
	m := newTestManager(t, cfg)
	m.ApplySubs([]proto.ProcessID{2})
	m.ApplyUnsubs([]proto.Unsubscription{{Process: 2, Stamp: 10}}, 100)
	if !holds(m.view, 2) {
		t.Fatal("obsolete unsubscription was applied")
	}
	if m.UnsubsLen() != 0 {
		t.Fatal("obsolete unsubscription buffered")
	}
}

func TestApplyUnsubsIgnoresOwnWhileSubscribed(t *testing.T) {
	t.Parallel()
	m := newTestManager(t, DefaultConfig())
	m.ApplyUnsubs([]proto.Unsubscription{{Process: 1, Stamp: 5}}, 5)
	if m.UnsubsLen() != 0 {
		t.Fatal("own unsubscription forwarded while still subscribed")
	}
	us := m.AppendUnsubs(nil, 5)
	if len(us) != 0 {
		t.Fatalf("AppendUnsubs = %v", us)
	}
}

func TestMakeSubsIncludesSelf(t *testing.T) {
	t.Parallel()
	m := newTestManager(t, DefaultConfig())
	m.ApplySubs([]proto.ProcessID{2})
	subs := m.AppendSubs(nil)
	if len(subs) != 2 || subs[0] != 1 {
		t.Fatalf("AppendSubs = %v, want [1 2]", subs)
	}
}

func TestMakeSubsAfterUnsubscribe(t *testing.T) {
	t.Parallel()
	m := newTestManager(t, DefaultConfig())
	if err := m.Unsubscribe(10); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	if !m.Unsubscribed() {
		t.Fatal("Unsubscribed() = false")
	}
	subs := m.AppendSubs(nil)
	for _, p := range subs {
		if p == 1 {
			t.Fatal("unsubscribed process still announces itself")
		}
	}
	us := m.AppendUnsubs(nil, 10)
	if len(us) != 1 || us[0].Process != 1 || us[0].Stamp != 10 {
		t.Fatalf("AppendUnsubs = %v", us)
	}
}

func TestUnsubscribeRefusal(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.UnsubRefusalLen = 2
	cfg.UnsubTTL = 1000
	m := newTestManager(t, cfg)
	m.ApplyUnsubs([]proto.Unsubscription{
		{Process: 5, Stamp: 1},
		{Process: 6, Stamp: 1},
	}, 1)
	err := m.Unsubscribe(2)
	if !errors.Is(err, ErrUnsubRefused) {
		t.Fatalf("Unsubscribe = %v, want ErrUnsubRefused", err)
	}
	if m.Unsubscribed() {
		t.Fatal("refused unsubscription still marked the process as leaving")
	}
}

func TestTargetsDistinct(t *testing.T) {
	t.Parallel()
	m := newTestManager(t, DefaultConfig())
	m.ApplySubs([]proto.ProcessID{2, 3, 4, 5, 6, 7, 8})
	ts := m.AppendTargets(nil, 3)
	if len(ts) != 3 {
		t.Fatalf("AppendTargets(nil, 3) = %v", ts)
	}
	seen := map[proto.ProcessID]bool{}
	for _, p := range ts {
		if seen[p] {
			t.Fatalf("duplicate target in %v", ts)
		}
		seen[p] = true
	}
}

func TestPrioritaryPreInsertedAndProtected(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.MaxView = 3
	cfg.Prioritary = []proto.ProcessID{100, 101}
	m := newTestManager(t, cfg)
	if !holds(m.view, 100) || !holds(m.view, 101) {
		t.Fatal("prioritary processes not pre-inserted")
	}
	// Flood with subscriptions: prioritaries must survive every truncation.
	for i := uint64(2); i < 50; i++ {
		m.ApplySubs([]proto.ProcessID{proto.ProcessID(i)})
	}
	if !holds(m.view, 100) || !holds(m.view, 101) {
		t.Fatal("prioritary process evicted")
	}
	if m.ViewLen() != 3 {
		t.Fatalf("view size = %d, want 3", m.ViewLen())
	}
}

func TestWeightedPolicyBumpsAndEvictsHeavy(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.MaxView = 3
	cfg.Policy = Weighted
	m := newTestManager(t, cfg)
	m.ApplySubs([]proto.ProcessID{2, 3, 4})
	// Re-announce 2 many times: it becomes the best-known entry.
	for i := 0; i < 10; i++ {
		m.ApplySubs([]proto.ProcessID{2})
	}
	// Adding a 4th entry forces eviction of exactly the heavy one.
	m.ApplySubs([]proto.ProcessID{5})
	if holds(m.view, 2) {
		t.Fatal("heaviest entry survived weighted truncation")
	}
	for _, p := range []proto.ProcessID{3, 4, 5} {
		if !holds(m.view, p) {
			t.Fatalf("light entry %v evicted", p)
		}
	}
}

func TestPolicyString(t *testing.T) {
	t.Parallel()
	if Uniform.String() != "uniform" || Weighted.String() != "weighted" {
		t.Error("Policy.String wrong")
	}
	if Policy(9).String() != "policy(9)" {
		t.Error("unknown policy string wrong")
	}
}

func TestViewNeverExceedsBoundUnderChurn(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.MaxView = 7
	m := newTestManager(t, cfg)
	r := rng.New(99)
	now := uint64(0)
	for step := 0; step < 2000; step++ {
		now++
		switch r.Intn(3) {
		case 0:
			subs := make([]proto.ProcessID, 1+r.Intn(5))
			for i := range subs {
				subs[i] = proto.ProcessID(2 + r.Intn(60))
			}
			m.ApplySubs(subs)
		case 1:
			m.ApplyUnsubs([]proto.Unsubscription{
				{Process: proto.ProcessID(2 + r.Intn(60)), Stamp: now},
			}, now)
		case 2:
			_ = m.AppendSubs(nil)
			_ = m.AppendUnsubs(nil, now)
		}
		if m.ViewLen() > cfg.MaxView {
			t.Fatalf("step %d: view %d exceeds bound %d", step, m.ViewLen(), cfg.MaxView)
		}
		if m.SubsLen() > cfg.MaxSubs {
			t.Fatalf("step %d: subs %d exceeds bound %d", step, m.SubsLen(), cfg.MaxSubs)
		}
		if m.UnsubsLen() > cfg.MaxUnsubs {
			t.Fatalf("step %d: unsubs %d exceeds bound %d", step, m.UnsubsLen(), cfg.MaxUnsubs)
		}
	}
}

func TestRemoveFromView(t *testing.T) {
	t.Parallel()
	m := newTestManager(t, DefaultConfig())
	m.ApplySubs([]proto.ProcessID{2})
	if !m.view.Remove(2) || m.view.Remove(2) || holds(m.view, 2) {
		t.Fatal("removing 2 from the manager's view: behaviour wrong")
	}
}

// TestHostileUnsubsLeaveNothing: one gossip carrying 10⁴ or 3·10⁴ fresh
// unsubscriptions — far past |unSubs|m, DefaultConfig's 15 — leaves the
// buffer at its bound and the process holding under 16 KB more than before
// it (a few hundred bytes of it the buffer's, the rest slack for the
// runtime's own), not the index and the backing array the inflow grew
// (393 KB and 1.2 MB when a truncation kept them). At |unSubs|m = 100 the
// buffer keeps an index, which must be one of its 100 entries, not the
// flood's. A gossip that names every process twice, the second time under
// a newer stamp, leaves nothing either, and takes time linear in its
// length: 10 times the processes may take at most 30 times as long (the
// linear merge reads about 15, refreshing one entry at a time about 80;
// not asserted under the race detector). Not parallel: it reads the heap
// and the clock.
func TestHostileUnsubsLeaveNothing(t *testing.T) {
	for _, c := range []struct {
		bound, n int
		twice    bool
	}{{15, 10_000, false}, {15, 30_000, false}, {100, 10_000, false}, {15, 3_000, true}, {15, 30_000, true}} {
		cfg := DefaultConfig()
		cfg.MaxUnsubs = c.bound
		unsubs := hostileUnsubs(c.n, c.twice)
		m := newTestManager(t, cfg)
		m.Seed([]proto.ProcessID{2, 3, 4})
		before := liveHeap()
		m.ApplyUnsubs(unsubs, 6)
		retained := int64(liveHeap()) - int64(before)
		if m.UnsubsLen() != cfg.MaxUnsubs {
			t.Fatalf("%d unsubscriptions left %d buffered, want %d", len(unsubs), m.UnsubsLen(), cfg.MaxUnsubs)
		}
		if retained > 16<<10 {
			t.Errorf("%d unsubscriptions in one gossip left %d bytes retained at |unSubs|m = %d, want under 16 KB", len(unsubs), retained, cfg.MaxUnsubs)
		}
		runtime.KeepAlive(m)
		runtime.KeepAlive(unsubs)
	}
	// A window applies the gossip naming n processes twice to 3·10⁴/n fresh
	// managers in a row, so both sizes' windows do the same work; the
	// windows of the two sizes alternate, so that a burst of outside load
	// hits both, and the best of nine counts.
	took := make(map[int]time.Duration)
	gossips := map[int][]proto.Unsubscription{3_000: hostileUnsubs(3_000, true), 30_000: hostileUnsubs(30_000, true)}
	for w := 0; w < 9; w++ {
		for _, n := range []int{3_000, 30_000} {
			ms := make([]*Manager, 30_000/n)
			for i := range ms {
				ms[i] = newTestManager(t, DefaultConfig())
			}
			runtime.GC()
			start := time.Now()
			for _, m := range ms {
				m.ApplyUnsubs(gossips[n], 6)
			}
			if d := time.Since(start) / time.Duration(len(ms)); w == 0 || d < took[n] {
				took[n] = d
			}
		}
	}
	if r := float64(took[30_000]) / float64(took[3_000]); r >= 30 && !raceEnabled {
		t.Errorf("naming 3·10⁴ processes twice took %v, 3·10³ %v: %.0f times as long, want under 30", took[30_000], took[3_000], r)
	}
}

// TestHostileSubsLeaveNothing: a gossip whose subs list is hundreds of views
// long is indexed in a table made for it, which the manager does not keep.
// At the paper's bounds an honest gossip's index fits the stack and the
// manager keeps no scratch; at l = 60, |subs|m = 70 it does not, and the
// manager keeps the scratch that an honest gossip needs and no more.
func TestHostileSubsLeaveNothing(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ view, subs, kept int }{{15, 15, 0}, {60, 70, 512}} {
		cfg := DefaultConfig()
		cfg.MaxView, cfg.MaxSubs = c.view, c.subs
		m := newTestManager(t, cfg)
		gen := rng.New(5)
		gossip := func(n int) []proto.ProcessID {
			ps := make([]proto.ProcessID, n)
			for i := range ps {
				ps[i] = proto.ProcessID(2 + gen.Intn(1_000_000))
			}
			return ps
		}
		for i := 0; i < 3; i++ {
			m.Receive(nil, gossip(c.subs+1), 0)
		}
		if got := cap(m.scratch); got != c.kept {
			t.Errorf("l=%d |subs|m=%d: honest gossips left a scratch of %d slots, want %d", c.view, c.subs, got, c.kept)
		}
		m.Receive(nil, gossip(10_000), 0)
		if got := cap(m.scratch); got != c.kept {
			t.Errorf("l=%d |subs|m=%d: a gossip of 10 000 subscriptions left a scratch of %d slots, want %d", c.view, c.subs, got, c.kept)
		}
		if m.ViewLen() != c.view || m.SubsLen() != c.subs {
			t.Errorf("l=%d |subs|m=%d: view %d, subs %d after the flood", c.view, c.subs, m.ViewLen(), m.SubsLen())
		}
	}
}

// hostileUnsubs is one gossip's unsubscriptions of n fresh processes at
// stamp 5, and, when twice, of the same n again at stamp 6.
func hostileUnsubs(n int, twice bool) []proto.Unsubscription {
	unsubs := make([]proto.Unsubscription, 0, 2*n)
	for i := 0; i < n; i++ {
		unsubs = append(unsubs, proto.Unsubscription{Process: proto.ProcessID(100 + i), Stamp: 5})
	}
	if twice {
		for i := 0; i < n; i++ {
			unsubs = append(unsubs, proto.Unsubscription{Process: proto.ProcessID(100 + i), Stamp: 6})
		}
	}
	return unsubs
}

// liveHeap returns the live heap after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
