package sim

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/proto"
	"repro/internal/rng"
)

// procSink is one process's delivery sink: a pointer to it is the
// core.EventSink interface value the engine holds, so routing deliveries
// to the recorder costs no per-process closure. The sinks live in one
// contiguous slice on the Cluster.
type procSink struct {
	c   *Cluster
	pid proto.ProcessID
}

// DeliverEvent implements core.EventSink.
func (s *procSink) DeliverEvent(ev proto.Event) { s.c.deliverFn(s.pid, ev) }

// buildEngines constructs the lpbcast engines through pooled allocation
// (core.NewIn), sharded across the configured worker count. Determinism is
// preserved by phase separation: every engine stream is pre-split from the
// root sequentially in pid order, shards then construct engines from their
// private streams and shard-local pools (no RNG involved), and the initial
// views are seeded sequentially in pid order so viewRNG's draw order
// matches the historical one-loop construction exactly.
func (c *Cluster) buildEngines(root, viewRNG *rng.Source) error {
	n := c.opts.N
	c.sinks = make([]procSink, n)
	srcs := make([]rng.Source, n)
	for i := 0; i < n; i++ {
		c.sinks[i] = procSink{c: c, pid: c.ids[i]}
		root.SplitInto(&srcs[i])
	}
	c.procs = make([]Process, n)
	w := effectiveWorkers(c.opts.Workers, n)
	c.pools = make([]*core.Pools, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		lo, hi := s*n/w, (s+1)*n/w
		p := &core.Pools{}
		c.pools[s] = p
		wg.Add(1)
		go func(s, lo, hi int, p *core.Pools) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				eng, err := core.NewIn(c.ids[i], c.opts.Lpbcast, &c.sinks[i], srcs[i], p)
				if err != nil {
					errs[s] = fmt.Errorf("sim: process %v: %w", c.ids[i], err)
					return
				}
				eng.SetEmissionReuse(true) // see the executor's allocation argument
				c.procs[i] = eng
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
		c.procs[i].(*core.Engine).Seed(c.uniformView(i, c.opts.Lpbcast.Membership.MaxView, viewRNG))
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
