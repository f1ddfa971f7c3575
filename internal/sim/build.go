package sim

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/pbcast"
	"repro/internal/pool"
	"repro/internal/proto"
	"repro/internal/rng"
)

// procSink is one process's delivery sink: a pointer to it is the
// core.EventSink interface value an engine holds, so routing deliveries
// to the recorder costs no per-process closure (a pbcast node holds its
// DeliverEvent method value). The sinks live in one contiguous slice on the
// Cluster.
type procSink struct {
	c   *Cluster
	pid proto.ProcessID
}

// DeliverEvent implements core.EventSink.
func (s *procSink) DeliverEvent(ev proto.Event) { s.c.deliverFn(s.pid, ev) }

// buildEngines constructs the processes — lpbcast engines through pooled
// allocation (core.NewIn), pbcast nodes with pbcast.New — in the executor's
// shards (shardRange), delivering through their procSinks, and binds each to
// its shard's emission arena while it is still in cache. Determinism is
// preserved by phase separation: every process stream is pre-split from the
// root sequentially in pid order (SplitInto draws as Split does), shards
// then construct processes from their private streams and shard-local pools,
// each drawing only from its own stream (pbcast.New splits its membership
// stream from it), and the initial views are set sequentially in pid order
// so viewRNG's draw order matches the historical one-loop construction
// exactly.
func (c *Cluster) buildEngines(root, viewRNG *rng.Source) error {
	n := c.opts.N
	c.sinks = make([]procSink, n)
	srcs := make([]rng.Source, n)
	for i := 0; i < n; i++ {
		c.sinks[i] = procSink{c: c, pid: c.ids[i]}
		root.SplitInto(&srcs[i])
	}
	c.procs = make([]Process, n)
	w := len(c.emit)
	lp := c.opts.Protocol == Lpbcast
	if lp {
		c.pools = make([]*core.Pools, w)
	}
	pcfg := c.opts.Pbcast
	if c.opts.Protocol == PbcastTotal {
		pcfg.Mode = pbcast.TotalView
	}
	errs := make([]error, w)
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		lo, hi := shardRange(s, w, n)
		var p *core.Pools
		if lp {
			p = &core.Pools{}
			c.pools[s] = p
		}
		wg.Add(1)
		go func(s, lo, hi int, p *core.Pools) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				var proc interface {
					Process
					SetEmitArena(*proto.EmitArena)
				}
				var err error
				if lp {
					proc, err = core.NewIn(c.ids[i], c.opts.Lpbcast, &c.sinks[i], srcs[i], p)
				} else {
					proc, err = pbcast.New(c.ids[i], pcfg, c.sinks[i].DeliverEvent, &srcs[i])
				}
				if err != nil {
					errs[s] = fmt.Errorf("sim: process %v: %w", c.ids[i], err)
					return
				}
				proc.SetEmitArena(&c.emit[s])
				c.procs[i] = proc
			}
		}(s, lo, hi, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		switch p := c.procs[i].(type) {
		case *core.Engine:
			p.Seed(c.uniformView(i, c.opts.Lpbcast.Membership.MaxView, viewRNG))
		case *pbcast.Node:
			if pcfg.Mode == pbcast.TotalView {
				p.SetTotalView(c.ids)
			} else {
				p.Seed(c.uniformView(i, pcfg.Membership.MaxView, viewRNG))
			}
		}
	}
	return nil
}

// PoolStats aggregates the construction pools' counters across shards.
// Pbcast clusters have no pools and report zeros.
func (c *Cluster) PoolStats() pool.Stats {
	var s pool.Stats
	for _, p := range c.pools {
		s.Add(p.Stats())
	}
	return s
}

// EmitBytes is the storage the cluster's emission arenas keep, one per
// executor shard, every generation counted: what the emissions of the G
// busiest periods needed, G being the periods a message can be in flight
// (one with no delay model).
func (c *Cluster) EmitBytes() int {
	n := 0
	for s := range c.emit {
		n += c.emit[s].Size()
	}
	return n
}
