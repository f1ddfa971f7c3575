package core

import (
	"repro/internal/buffer"
	"repro/internal/membership"
	"repro/internal/pool"
	"repro/internal/proto"
	"repro/internal/rng"
)

// EventSink is the interface form of Deliverer: implementing it on a
// per-process record lets a driver receive deliveries without allocating
// a closure per engine (a pointer-shaped interface value costs nothing).
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

// Pools holds the allocators for bulk engine construction: a slab of
// engine slots plus the arenas the view and subs pre-size from. One Pools
// value serves one construction shard; it is not safe for concurrent use.
type Pools struct {
	slots pool.Slab[engineSlot]
	Mem   membership.Pools
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
// allocation.
func NewIn(self proto.ProcessID, cfg Config, sink EventSink, src rng.Source, p *Pools) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	slot := p.slots.Get()
	slot.src = src
	slot.src.SplitInto(&slot.memSrc)
	if err := slot.mgr.Init(self, cfg.Membership, &slot.memSrc, &p.Mem); err != nil {
		p.slots.Put(slot)
		return nil, err
	}
	slot.events.Init()
	slot.archive.Init(cfg.ArchiveSize, cfg.flatWindow())
	e := &slot.eng
	*e = Engine{
		self:    self,
		cfg:     cfg,
		mem:     &slot.mgr.M,
		events:  &slot.events,
		archive: &slot.archive,
		sink:    sink,
		rng:     &slot.src,
	}
	if cfg.DigestMode == CompactDigest || cfg.DedupMemory {
		e.compact = &slot.compact
	}
	return e, nil
}
