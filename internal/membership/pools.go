package membership

import (
	"errors"

	"repro/internal/buffer"
	"repro/internal/pool"
	"repro/internal/proto"
	"repro/internal/rng"
)

// Pools groups the arena backing the membership state that is sized at
// construction: view lists and subs buffers, with the prioritary set beside
// them. Like all pools it is shard-local — one per construction worker,
// never shared.
type Pools struct {
	PIDs pool.Arena[proto.ProcessID]
}

// Stats aggregates the pools' counters.
func (p *Pools) Stats() pool.Stats { return p.PIDs.Stats() }

// ManagerBlock is a Manager together with the view and buffer state it
// manages, laid out as one contiguous block so a pooled allocation (or an
// embedding in a larger per-process record) constructs a whole membership
// stack with zero individual heap allocations.
type ManagerBlock struct {
	M Manager

	view   View
	subs   buffer.PIDList
	unsubs buffer.UnsubList
}

// Init prepares a zero-value block in place, wiring the Manager to the
// block's own view and buffers and pre-sizing them from pools (which may
// be nil to fall back to plain allocation). The Manager reads cfg in place
// for as long as it lives, so blocks built with one configuration share it;
// NewManager is Init with a copy of its own.
func (b *ManagerBlock) Init(self proto.ProcessID, cfg *Config, r *rng.Source, p *Pools) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if self == proto.NilProcess {
		return errors.New("membership: self must be a valid process id")
	}
	if r == nil {
		return errors.New("membership: rng source must not be nil")
	}
	b.view.Init(self)
	b.unsubs.Init()
	m := &b.M
	m.self, m.cfg, m.rng = self, cfg, r
	m.view, m.subs, m.unsubs = &b.view, &b.subs, &b.unsubs
	m.presize(p)
	return nil
}
