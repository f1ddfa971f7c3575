package core

import (
	"slices"

	"repro/internal/buffer"
	"repro/internal/membership"
	"repro/internal/pool"
	"repro/internal/proto"
	"repro/internal/rng"
)

// EventSink receives an engine's deliveries (New wraps its Deliverer in one):
// implementing it on a per-process record lets a driver receive deliveries
// without a closure per engine (a pointer-shaped interface value is free).
type EventSink interface {
	DeliverEvent(e proto.Event)
}

// engineSlot is one process's complete protocol state — engine, membership
// stack, protocol buffers, and both RNG streams — as a single contiguous
// record, so a pooled slab allocation constructs a whole process.
type engineSlot struct {
	eng     Engine
	mgr     membership.ManagerBlock
	events  buffer.EventBuffer
	compact buffer.CompactDigest
	archive buffer.Archive
	src     rng.Source // engine stream
	memSrc  rng.Source // membership stream, split from src
}

// init builds an engine for self in the zeroed slot s, reading cfg in
// place: its random stream is r and the membership stream is split from r
// into the slot, as both constructors do. It sets the engine's fields one
// by one rather than assigning a whole Engine, which would copy the record
// for nothing. The caller has validated cfg.
func (s *engineSlot) init(self proto.ProcessID, cfg *Config, r *rng.Source, mp *membership.Pools) error {
	r.SplitInto(&s.memSrc)
	if err := s.mgr.Init(self, &cfg.Membership, &s.memSrc, mp); err != nil {
		return err
	}
	s.events.Init()
	s.archive.Init(cfg.ArchiveSize, cfg.flatWindow())
	e := &s.eng
	e.self, e.cfg, e.rng = self, cfg, r
	e.mem, e.events, e.archive = &s.mgr.M, &s.events, &s.archive
	if cfg.DigestMode == CompactDigest || cfg.DedupMemory {
		e.compact = &s.compact
	}
	return nil
}

// Pools holds the allocators for bulk engine construction: a slab of
// engine slots plus the arenas the view and subs pre-size from, and the
// configuration the engines built from them share. One Pools value serves
// one construction shard; it is not safe for concurrent use.
type Pools struct {
	slots pool.Slab[engineSlot]
	Mem   membership.Pools
	cfg   *Config // the last configuration built with, shared while it repeats
}

// Stats aggregates the pools' counters.
func (p *Pools) Stats() pool.Stats {
	s := p.slots.Stats()
	s.Add(p.Mem.Stats())
	return s
}

// NewIn is New with all state drawn from pools: the engine, its
// membership manager, and every protocol buffer live in one slab record,
// the view's and subs' backing slices come from size-classed arenas, and
// every other buffer starts empty and grows on demand up to its bound. src is
// the engine's random stream, passed by value into the slot (the caller
// typically fills it with rng.SplitInto); the membership stream is split
// from it exactly as New splits it from r, so a pooled engine is
// bit-identical to a heap-constructed one. sink receives deliveries and
// may be nil; unlike New's closure parameter it adds no per-engine
// allocation. Engines built with a cfg equal to the one before share one
// copy of it, held by the pools; only a valid cfg becomes that copy, so a
// cfg equal to it is not validated again.
func NewIn(self proto.ProcessID, cfg Config, sink EventSink, src rng.Source, p *Pools) (*Engine, error) {
	if p.cfg == nil || !p.cfg.equal(&cfg) {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		c := cfg
		c.Membership.Prioritary = slices.Clone(cfg.Membership.Prioritary)
		p.cfg = &c
	}
	slot := p.slots.Get()
	slot.src = src
	if err := slot.init(self, p.cfg, &slot.src, &p.Mem); err != nil {
		p.slots.Put(slot)
		return nil, err
	}
	slot.eng.sink = sink
	return &slot.eng, nil
}

// equal reports whether c and d configure engines alike, field by field,
// Prioritary by content. A field added to Config or membership.Config must be
// added here: TestPoolsShareConfig changes each field in turn.
func (c *Config) equal(d *Config) bool {
	m, n := &c.Membership, &d.Membership
	return m.MaxView == n.MaxView && m.MaxSubs == n.MaxSubs && m.MaxUnsubs == n.MaxUnsubs &&
		m.UnsubTTL == n.UnsubTTL && m.UnsubRefusalLen == n.UnsubRefusalLen && m.Policy == n.Policy &&
		slices.Equal(m.Prioritary, n.Prioritary) &&
		c.Fanout == d.Fanout && c.MaxEvents == d.MaxEvents && c.MaxEventIDs == d.MaxEventIDs &&
		c.DigestMode == d.DigestMode && c.DedupMemory == d.DedupMemory && c.ArchiveSize == d.ArchiveSize &&
		c.AssumeFromDigest == d.AssumeFromDigest && c.Retransmit == d.Retransmit &&
		c.MaxRetransmitPerGossip == d.MaxRetransmitPerGossip && c.RetransmitTimeout == d.RetransmitTimeout &&
		c.MembershipEvery == d.MembershipEvery && c.WeightedEventEviction == d.WeightedEventEviction &&
		c.Logger == d.Logger
}
