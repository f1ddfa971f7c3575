package membership

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/buffer"
	"repro/internal/proto"
	"repro/internal/rng"
)

// Policy selects the view truncation strategy.
type Policy int

// Truncation policies.
const (
	// Uniform is the paper's default: evict uniformly random entries.
	Uniform Policy = iota
	// Weighted is the §6.1 heuristic: evict high-awareness entries first
	// and prefer announcing low-awareness entries in outgoing subs.
	Weighted
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Weighted:
		return "weighted"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config bounds the membership buffers. The zero value is not useful; use
// DefaultConfig as a base.
type Config struct {
	// MaxView is l, the maximum view size (|view|m).
	MaxView int
	// MaxSubs bounds the subs buffer (|subs|m).
	MaxSubs int
	// MaxUnsubs bounds the unSubs buffer (|unSubs|m).
	MaxUnsubs int
	// UnsubTTL is how long (in deployment time units) an unsubscription
	// keeps circulating before it becomes obsolete (§3.4).
	UnsubTTL uint64
	// UnsubRefusalLen refuses a local unsubscription while the local
	// unSubs buffer holds at least this many entries (§3.4), increasing
	// the chance the unsubscription actually propagates. Zero disables
	// the refusal rule.
	UnsubRefusalLen int
	// Policy selects the truncation strategy.
	Policy Policy
	// Prioritary processes are "a very limited set ... constantly known by
	// each process" (§4.4), used for bootstrap and to normalize views.
	// They are merged into the view and never evicted by truncation.
	Prioritary []proto.ProcessID
}

// DefaultConfig mirrors the paper's measurement setup: l=15 view entries,
// subs/unsubs buffers sized like the view.
func DefaultConfig() Config {
	return Config{
		MaxView:         15,
		MaxSubs:         15,
		MaxUnsubs:       15,
		UnsubTTL:        50,
		UnsubRefusalLen: 10,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MaxView <= 0 {
		return errors.New("membership: MaxView must be positive")
	}
	if c.MaxSubs <= 0 {
		return errors.New("membership: MaxSubs must be positive")
	}
	if c.MaxUnsubs <= 0 {
		return errors.New("membership: MaxUnsubs must be positive")
	}
	if len(c.Prioritary) >= c.MaxView {
		return fmt.Errorf("membership: %d prioritary processes do not fit a view of %d", len(c.Prioritary), c.MaxView)
	}
	return nil
}

// Manager owns one process's membership state: the partial view and the
// subs/unSubs forwarding buffers, implementing phases 1 and 2 of gossip
// reception (Fig. 1(a)) and the membership part of emission (Fig. 1(b)).
//
// Manager is not safe for concurrent use; the protocol engine serializes
// access.
type Manager struct {
	self    proto.ProcessID
	cfg     *Config // read in place: many managers may share one
	view    *View
	subs    *buffer.PIDList
	unsubs  *buffer.UnsubList
	scratch []uint64 // an index past indexRoom slots (Manager.index); nil at the paper's bounds
	rng     *rng.Source

	unsubscribed bool
}

// NewManager creates a membership manager for process self, with its own
// copy of cfg beside it. The prioritary processes from cfg are pre-inserted
// into the view.
func NewManager(self proto.ProcessID, cfg Config, r *rng.Source) (*Manager, error) {
	b := &struct {
		ManagerBlock
		cfg Config
	}{cfg: cfg}
	if err := b.Init(self, &b.cfg, r, nil); err != nil {
		return nil, err
	}
	return &b.M, nil
}

// presize grows the view and subs to their transient high-water mark (the
// configured bound plus one gossip's worth of inflow) — they are full from
// the first round and every reception churns them, so they never reallocate
// in steady state — makes the view's weights under the Weighted policy, the
// only reader of a weight, and installs the prioritary set. unSubs starts
// empty like the engine's event buffers: most processes never meet an
// unsubscription, and one that does grows the list on demand. Truncation
// keeps the configured prioritary set; the owner, which it may name, is
// never in the view.
func (m *Manager) presize(p *Pools) {
	inflow := m.cfg.MaxSubs + 2
	if p != nil {
		m.view.GrowIn(m.cfg.MaxView+inflow, p)
		m.subs.GrowIn(m.cfg.MaxSubs+m.cfg.MaxView+inflow, &p.PIDs)
	} else {
		m.view.Grow(m.cfg.MaxView + inflow)
		m.subs.Grow(m.cfg.MaxSubs + m.cfg.MaxView + inflow)
	}
	if m.cfg.Policy == Weighted {
		m.view.weigh()
	}
	for _, q := range m.cfg.Prioritary {
		m.view.Add(q) // refuses the owner
	}
	if len(m.cfg.Prioritary) > 0 { // the kept-position marks exist only beside a prioritary set
		m.view.keepBits.Grow(m.cfg.MaxView + inflow)
	}
}

// View returns the current view members (copy).
func (m *Manager) View() []proto.ProcessID { return m.view.Processes() }

// ViewLen returns the current view size.
func (m *Manager) ViewLen() int { return m.view.Len() }

// index returns an index of the view and subs with room for n more ids, in
// room while they fit, else in the manager's scratch, which is kept at the
// size an honest gossip needs (view at l, subs at |subs|m, another's subs and
// their sender): a hostile gossip's larger table is left to the collector.
func (m *Manager) index(room *[indexRoom]uint64, n int) pidIndex {
	tab := room[:]
	if ids := m.view.Len() + m.subs.Len() + n; 2*ids > indexRoom {
		size := indexSize(ids)
		heap := m.scratch[:min(size, cap(m.scratch))] // a separate name keeps room off the heap
		if len(heap) == size {
			clear(heap)
		} else if heap = make([]uint64, size); size <= indexSize(m.cfg.MaxView+2*m.cfg.MaxSubs+1) {
			m.scratch = heap
		}
		tab = heap
	}
	x := newIndex(tab)
	for _, p := range m.view.list { // distinct, into an empty table
		*x.slot(p) = uint64(p) | inView
	}
	for i, ln := 0, m.subs.Len(); i < ln; i++ {
		p := m.subs.At(i)
		*x.slot(p) |= uint64(p) | inSubs
	}
	return x
}

// Seed merges bootstrap members into the view (used at join time, before
// any gossip has been received), truncating to the view bound. Members
// evicted by the truncation spill into subs, which is bounded in turn. It is
// ApplySubs' pass, except that a member new to the view does not enter subs
// and a known one is not bumped.
func (m *Manager) Seed(ps []proto.ProcessID) {
	var room [indexRoom]uint64
	m.merge(m.index(&room, len(ps)), ps, true)
}

// ApplyUnsubs executes phase 1 of gossip reception: remove unsubscribed
// processes from the view, buffer the unsubscriptions for forwarding, and
// truncate the buffer randomly. Obsolete unsubscriptions (older than the
// TTL relative to now) are ignored and expired. Receive's phase 2 with no
// subscriptions changes nothing.
func (m *Manager) ApplyUnsubs(unsubs []proto.Unsubscription, now uint64) {
	m.Receive(unsubs, nil, now)
}

// Receive executes phases 1 and 2 of gossip reception (Fig. 1(a)), as
// ApplyUnsubs and then ApplySubs would, on one index x of view and subs,
// which phase 1 keeps exact: only a process x shows in a list is sought there.
func (m *Manager) Receive(unsubs []proto.Unsubscription, subs []proto.ProcessID, now uint64) {
	var room [indexRoom]uint64
	x := m.index(&room, len(subs))
	m.unsubs.AddAll(unsubs, func(u proto.Unsubscription) bool {
		if u.Process == m.self && !m.unsubscribed {
			// Somebody is circulating our own unsubscription; we are still
			// subscribed, so we do not remove ourselves, and we do not
			// forward it either.
			return false
		}
		if m.cfg.UnsubTTL > 0 && now >= m.cfg.UnsubTTL && u.Stamp < now-m.cfg.UnsubTTL {
			return false // obsolete
		}
		s := x.slot(u.Process)
		if *s&inView != 0 {
			m.view.Remove(u.Process)
		}
		if *s&inSubs != 0 {
			m.subs.Remove(u.Process)
		}
		*s &^= inView | inSubs
		return true
	})
	m.unsubs.Expire(now, m.cfg.UnsubTTL)
	m.unsubs.TruncateRandomDiscard(m.cfg.MaxUnsubs, m.rng)
	m.merge(x, subs, false)
}

// ApplySubs executes phase 2 of gossip reception: merge new subscriptions
// into the view and the subs forwarding buffer, truncate the view to l
// moving evicted members into subs, and truncate subs randomly. In the
// Weighted policy, re-announced known processes get their awareness weight
// bumped. An incoming id or an evictee costs one probe of an index of view
// and subs built for the call; only a bump scans, for its entry's position.
func (m *Manager) ApplySubs(subs []proto.ProcessID) {
	var room [indexRoom]uint64
	m.merge(m.index(&room, len(subs)), subs, false)
}

// merge is phase 2 on the index x, or Seed's merge when seeding. It ends by
// enforcing |view| <= l, moving evictees that x does not show in subs into
// it so they remain "eligible for being forwarded with the next gossip"
// (Fig. 1(a)), then |subs| <= |subs|m.
func (m *Manager) merge(x pidIndex, ps []proto.ProcessID, seeding bool) {
	for _, p := range ps {
		if p == m.self || p == proto.NilProcess {
			continue
		}
		s := x.slot(p)
		if *s&inView != 0 {
			if m.cfg.Policy == Weighted && !seeding {
				m.view.bumpAt(m.view.indexOf(p))
			}
			continue
		}
		m.view.push(p)
		*s |= uint64(p) | inView
		if !seeding {
			m.subs.PushUnless(p, *s&inSubs != 0)
			*s |= inSubs
		}
	}
	m.view.truncate(m.cfg.MaxView, m.cfg.Prioritary, m.cfg.Policy == Weighted, m.rng, m.subs, x)
	m.truncateSubs()
}

// truncateSubs enforces |subs| <= |subs|m. Under the Weighted policy,
// high-weight (well known) entries are dropped first so that outgoing subs
// favour poorly-known processes (§6.1); under Uniform, victims are random.
// The view does not change while subs is truncated, so each entry's weight is
// read once, into a side list that loses the victim's position as subs does.
func (m *Manager) truncateSubs() {
	if m.cfg.Policy != Weighted {
		m.subs.TruncateRandomDiscard(m.cfg.MaxSubs, m.rng)
		return
	}
	if m.subs.Len() <= m.cfg.MaxSubs {
		return
	}
	var onStack [128]int // past it (|subs|m + l beyond ~60) the list moves to the heap
	weights := onStack[:0]
	for i, ln := 0, m.subs.Len(); i < ln; i++ {
		weights = append(weights, m.view.Weight(m.subs.At(i)))
	}
	for len(weights) > m.cfg.MaxSubs {
		victim, ties := 0, 1
		for i, w := range weights[1:] {
			switch best := weights[victim]; {
			case w > best:
				victim, ties = i+1, 1
			case w == best:
				ties++
				if m.rng.Intn(ties) == 0 {
					victim = i + 1
				}
			}
		}
		m.subs.RemoveAt(victim)
		weights = append(weights[:victim], weights[victim+1:]...)
	}
}

// AppendTargets appends f distinct gossip targets, chosen uniformly from
// the view, to dst, allocation-free when dst has capacity.
func (m *Manager) AppendTargets(dst []proto.ProcessID, f int) []proto.ProcessID {
	return m.view.AppendPick(dst, f, m.rng)
}

// AppendSubs appends the subscriptions to attach to an outgoing gossip to
// dst: the buffered subs plus the sender itself (Fig. 1(b): "gossip.subs ←
// subs ∪ {pi}"), without allocating when dst has capacity.
func (m *Manager) AppendSubs(dst []proto.ProcessID) []proto.ProcessID {
	if !m.unsubscribed {
		dst = append(dst, m.self)
	}
	return m.subs.AppendItems(dst)
}

// AppendUnsubs expires obsolete unsubscriptions, then appends the rest to
// dst — the unsubscriptions to attach to an outgoing gossip — without
// allocating when dst has capacity.
func (m *Manager) AppendUnsubs(dst []proto.Unsubscription, now uint64) []proto.Unsubscription {
	m.unsubs.Expire(now, m.cfg.UnsubTTL)
	return m.unsubs.AppendItems(dst)
}

// ErrUnsubRefused is returned by Unsubscribe while the local unSubs buffer
// is too full for the local unsubscription to survive truncation (§3.4).
var ErrUnsubRefused = errors.New("membership: unsubscription refused, unSubs buffer too full")

// Unsubscribe starts this process's departure: its unsubscription is
// buffered (stamped now) so subsequent gossips spread it. Per §3.4 the
// request is refused while the local buffer exceeds the configured bound.
func (m *Manager) Unsubscribe(now uint64) error {
	if m.cfg.UnsubRefusalLen > 0 && m.unsubs.Len() >= m.cfg.UnsubRefusalLen {
		return ErrUnsubRefused
	}
	m.unsubscribed = true
	m.unsubs.Add(proto.Unsubscription{Process: m.self, Stamp: now})
	return nil
}

// SubsLen returns the current subs buffer size (diagnostics).
func (m *Manager) SubsLen() int { return m.subs.Len() }

// UnsubsLen returns the current unSubs buffer size (diagnostics).
func (m *Manager) UnsubsLen() int { return m.unsubs.Len() }

// pidIndex is the exact index one received gossip is handled on: an
// open-addressed table (linear probing, Fibonacci hashing) of the ids of the
// receiver's view and subs, each with a view bit and a subs bit, at most half
// full. Every membership question of reception phases 1–2 (Fig. 1(a)) is one
// probe into it. A slot holds id | bits<<32, 0 when empty (NilProcess is
// never indexed); nothing is deleted, a process leaving both lists keeps its
// slot with both bits clear.
type pidIndex struct {
	tab   []uint64
	shift uint // 64 − log2(len(tab))
}

// The bits of a slot beside its id.
const (
	inView uint64 = 1 << 32
	inSubs uint64 = 1 << 33
)

// indexRoom is the number of slots, 2 KB, an index takes on its builder's
// stack: 128 ids, where view, subs and one gossip's subs at the paper's bounds
// are 46, so a probe nearly always ends at its first slot. A larger index
// lives in the manager's scratch (Manager.index).
const indexRoom = 256

// indexSize is the number of slots, a power of two, for an index of n ids.
func indexSize(n int) int { return max(indexRoom, 1<<bits.Len(uint(2*n-1))) }

// newIndex returns an empty index over tab, whose length is a power of two.
func newIndex(tab []uint64) pidIndex {
	return pidIndex{tab: tab, shift: 64 - uint(bits.TrailingZeros(uint(len(tab))))}
}

// slot returns p's slot, or the empty slot where p goes. A probe ends at an
// id that is 0 or p, that is where id·(id^p) = 0: one branch, taken at the
// first slot whether p is held or not.
func (x pidIndex) slot(p proto.ProcessID) *uint64 {
	mask := len(x.tab) - 1
	for i := int(uint64(p) * 0x9e3779b97f4a7c15 >> x.shift); ; i = (i + 1) & mask {
		if id := uint64(uint32(x.tab[i&mask])); id*(id^uint64(p)) == 0 {
			return &x.tab[i&mask]
		}
	}
}
