package membership

import (
	"errors"
	"fmt"

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
	self   proto.ProcessID
	cfg    *Config // read in place: many managers may share one
	view   *View
	subs   *buffer.PIDList
	unsubs *buffer.UnsubList
	keep   []proto.ProcessID // prioritary set, usually empty; nil allocs
	rng    *rng.Source

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
// unsubscription, and one that does grows the list on demand.
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
		if q != m.self {
			if p != nil && m.keep == nil {
				m.keep = p.PIDs.Make(len(m.cfg.Prioritary))[:0]
			}
			m.keep = append(m.keep, q)
			m.view.Add(q)
		}
	}
	if len(m.keep) > 0 { // the kept-position marks exist only beside a prioritary set
		m.view.keepBits.Grow(m.cfg.MaxView + inflow)
	}
}

// Self returns the owning process id.
func (m *Manager) Self() proto.ProcessID { return m.self }

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return *m.cfg }

// View returns the current view members (copy).
func (m *Manager) View() []proto.ProcessID { return m.view.Processes() }

// ViewLen returns the current view size.
func (m *Manager) ViewLen() int { return m.view.Len() }

// ViewContains reports whether p is currently in the view.
func (m *Manager) ViewContains(p proto.ProcessID) bool { return m.view.Contains(p) }

// Seed merges bootstrap members into the view (used at join time, before
// any gossip has been received), truncating to the view bound. Members
// evicted by the truncation spill into subs, which is bounded in turn.
func (m *Manager) Seed(ps []proto.ProcessID) {
	for _, p := range ps {
		m.view.Add(p)
	}
	inSubs := m.subs.Filter()
	m.truncate(m.view.Len(), &inSubs)
}

// ApplyUnsubs executes phase 1 of gossip reception: remove unsubscribed
// processes from the view, buffer the unsubscriptions for forwarding, and
// truncate the buffer randomly. Obsolete unsubscriptions (older than the
// TTL relative to now) are ignored and expired.
func (m *Manager) ApplyUnsubs(unsubs []proto.Unsubscription, now uint64) {
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
		m.view.Remove(u.Process)
		m.subs.Remove(u.Process)
		return true
	})
	m.unsubs.Expire(now, m.cfg.UnsubTTL)
	m.unsubs.TruncateRandomDiscard(m.cfg.MaxUnsubs, m.rng)
}

// ApplySubs executes phase 2 of gossip reception: merge new subscriptions
// into the view and the subs forwarding buffer, truncate the view to l
// moving evicted members into subs, and truncate subs randomly. In the
// Weighted policy, re-announced known processes get their awareness weight
// bumped. An incoming id costs at most one scan of the view (find and bump
// in place, or append) and none when the filters rule it out, which in a
// system much larger than l they nearly always do; an id buffered here is
// not looked for again when the truncation evicts it.
func (m *Manager) ApplySubs(subs []proto.ProcessID) {
	v, fresh := m.view, m.view.Len()
	var inView buffer.PIDFilter
	for _, p := range v.list {
		inView.Add(p)
	}
	inSubs := m.subs.Filter()
	for _, p := range subs {
		if p == m.self || p == proto.NilProcess {
			continue
		}
		i := -1
		if inView.Has(p) {
			i = v.indexOf(p)
		}
		if i < 0 {
			v.push(p)
			inView.Add(p)
			m.subs.AddIn(p, &inSubs)
		} else if m.cfg.Policy == Weighted {
			v.bumpAt(i)
		}
	}
	m.truncate(fresh, &inSubs)
}

// truncate enforces |view| <= l, moving evictees into subs so they remain
// "eligible for being forwarded with the next gossip" (Fig. 1(a)), then
// |subs| <= |subs|m. View entries from position fresh up are in subs
// already; inSubs is a filter of subs.
func (m *Manager) truncate(fresh int, inSubs *buffer.PIDFilter) {
	m.view.truncate(m.cfg.MaxView, m.keep, m.cfg.Policy == Weighted, fresh, m.rng, m.subs, inSubs)
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

// Unsubscribed reports whether this process has started leaving.
func (m *Manager) Unsubscribed() bool { return m.unsubscribed }

// SubsLen returns the current subs buffer size (diagnostics).
func (m *Manager) SubsLen() int { return m.subs.Len() }

// UnsubsLen returns the current unSubs buffer size (diagnostics).
func (m *Manager) UnsubsLen() int { return m.unsubs.Len() }
