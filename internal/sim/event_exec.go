package sim

import "repro/internal/proto"

// This file implements the event clock: the cluster's timer wheel
// (internal/event) replaces the implicit "everything happens at the round
// boundary" schedule with an explicit, totally ordered event walk over
// millisecond virtual time. One RunRound still advances exactly one gossip
// period — round r covers the instants ((r-1)*periodMs, r*periodMs] — so
// the experiment runners drive both clocks identically. The division of
// labor is the round clock's: the wheel walk, filtering, and commit order
// stay sequential (they are the deterministic schedule), while tick
// emission, speculative composition, and message handling run on the
// cluster's shards, so results are bit-for-bit identical for any worker
// count.
//
// Two timer kinds exist, and their numeric order is their same-instant
// priority: arrivals fire before ticks, matching the round clock's
// drain-arrivals-then-tick order.
//
// # Synchronous mode (runEventRound)
//
// Every process's tick timer fires at each period boundary, rescheduling
// itself; each due instant is processed as one mini-round — the instant's
// arrivals drain into the queue prefix, due ticks emit in process index
// order (the wheel's Seq order, pinned at construction and preserved by
// in-order rescheduling), and the shared dispatch chases responses at that
// instant. For round-granular delay models every arrival lands exactly on a
// period boundary, so the walk degenerates to one mini-round per period
// that is structurally identical to the round clock's runRound: the bridge
// tests assert byte-for-byte equal results. Millisecond models
// (fault.Millis) land arrivals between boundaries, where they are handled
// at their true instants.
//
// # Asynchronous mode (runEventPeriodAsync)
//
// Each process ticks at a fixed per-process phase offset within every
// period (drawn once at construction from the event stream), replacing the
// round clock's per-period shuffle — the paper's §3.2 unsynchronized
// periods with real, staggered tick times. The period runs the wavefront
// schedule of async.go over the phase order, with one refinement: a tick at
// instant t observes exactly the arrivals at instants <= t. Arrival
// sub-barriers drain and handle every due instant up to the wave front
// before the wave composes, and the commit walk ends a wave early when a
// pending arrival instant would predate the next tick. Deliveries still
// land at (sub-)barriers and invalidate outstanding speculations exactly as
// in async.go.

const (
	// evKindArrival marks "an in-flight bucket comes due at this instant";
	// Ref is unused (the instant keys the bucket). Lower kind = higher
	// same-instant priority: arrivals precede ticks, as on the round clock.
	evKindArrival uint8 = iota
	// evKindTick is one process's periodic gossip timer; Ref is the process
	// index. Synchronous mode only — async ticks are position-driven.
	evKindTick
)

// drainArrivalsAt settles the in-flight bucket of instant at — the event
// clock's counterpart of drainArrivals: disarm the bucket's marker and
// append the surviving arrivals and their destination indices in
// deterministic enqueue order.
func (c *Cluster) drainArrivalsAt(at uint64, msgs []proto.Message, dests []int) ([]proto.Message, []int) {
	c.armed[at%uint64(len(c.armed))] = false
	return c.settleArrivals(at, msgs, dests)
}

// poisonInflight poisons the slot storage behind every arrival the
// round's (or period's) drains handed out. Spent slots stay off the pool
// until RunRound's end-of-round recycle, so none of them back live
// messages yet.
func (c *Cluster) poisonInflight() {
	if c.fl == nil {
		return
	}
	c.fl.poisonSpent()
}

// runEventRound advances one synchronous gossip period on the event clock
// across the worker shards. Cluster.RunRound has already advanced c.now.
func (e *shardedExecutor) runEventRound() {
	c := e.c
	pEnd := c.now * c.periodMs
	for {
		at, ok := c.wheel.Next()
		if !ok || at > pEnd {
			break
		}
		batch := c.wheel.PopAt(at)
		c.nowMs = at
		e.queue = e.queue[:0]
		c.arrivalDests = c.arrivalDests[:0]
		pre := 0
		ticks := 0
		for _, tm := range batch {
			if tm.Kind == evKindArrival {
				// At most one marker per instant (armed dedups), sorted to
				// the batch front, so arrivals form the queue prefix.
				e.queue, c.arrivalDests = c.drainArrivalsAt(at, e.queue, c.arrivalDests)
				pre = len(e.queue)
				continue
			}
			c.wheel.Schedule(at+c.periodMs, evKindTick, tm.Ref)
			ticks++
		}
		if ticks > 0 {
			// Synchronous ticks fire in lockstep at period boundaries, and
			// the batch holds them in process index order (the wheel Seq
			// invariant), so the round-clock tick fan-out — every shard
			// emits its own index range, concatenated in shard order —
			// is the batch's own emission order.
			if ticks != len(c.procs) {
				panic("sim: synchronous event ticks desynchronized")
			}
			e.emitTicks()
		}
		e.dispatch(pre)
	}
	c.nowMs = pEnd
	if e.poison {
		e.poisonRecycled()
	}
}

// eventArrivalBarrier drains every due arrival instant up to and including
// limit: each instant's survivors are binned to their destination shards
// and handled by the wave barrier (same-instant response chase included) at
// their true virtual time. An arrival addressed to a process with an
// outstanding speculative tick invalidates it, exactly like a wave
// delivery.
func (e *shardedExecutor) eventArrivalBarrier(limit uint64) {
	c := e.c
	if c.fl == nil {
		return
	}
	for {
		at, ok := c.wheel.Next()
		if !ok || at > limit {
			return
		}
		c.wheel.PopAt(at) // async wheels hold only arrival markers
		c.nowMs = at
		e.queue, c.arrivalDests = c.drainArrivalsAt(at, e.queue[:0], c.arrivalDests[:0])
		e.arrivalBarrier()
	}
}

// runEventPeriodAsync advances one asynchronous gossip period on the event
// clock across the worker shards: the wavefront schedule of runAsyncPeriod
// over the static phase order, with arrival sub-barriers pinning every
// arrival to its instant. Cluster.RunRound has already advanced c.now.
func (e *shardedExecutor) runEventPeriodAsync() {
	c := e.c
	n := len(c.procs)
	for i := 0; i < n; i++ {
		e.aComposed[i] = false
	}
	base := (c.now - 1) * c.periodMs
	// e.aOrder was copied from the static phase order at construction.
	lookahead := asyncLookahead(n)

	front := 0
	for front < n {
		// Everything due before (or at) the front tick's instant is visible
		// to it; drain and handle it before the wave composes.
		e.eventArrivalBarrier(base + c.phase[e.aOrder[front]])
		windowEnd := front + lookahead
		if windowEnd > n {
			windowEnd = n
		}
		// Compose phase (parallel): sharded by process ownership.
		e.waveFront, e.waveWindowEnd = front, windowEnd
		e.parallel(e.composeFn)
		// Commit walk (sequential): a pending arrival instant at or before
		// a tick's instant ends the wave so the arrival lands (and possibly
		// invalidates speculations) first. The check reads only the wheel,
		// a pure function of the simulation state.
		e.queue = e.queue[:0]
		e.clearInboxes()
		waveEnd := windowEnd
		for k := front; k < windowEnd; k++ {
			i := e.aOrder[k]
			if c.crashes.Crashed(c.ids[i], c.now) {
				continue
			}
			if na, pending := c.wheel.Next(); pending && na <= base+c.phase[i] {
				waveEnd = k
				break
			}
			if !e.aComposed[i] {
				waveEnd = k
				break
			}
			c.nowMs = base + c.phase[i]
			e.commitEmission(i)
		}
		e.asyncBarrier()
		front = waveEnd
	}
	// End-of-period flush: arrivals after the last tick but inside the
	// period land now, leaving the wheel parked at the boundary.
	e.eventArrivalBarrier(c.now * c.periodMs)
	c.nowMs = c.now * c.periodMs
	if e.poison {
		e.poisonAsyncRecycled()
	}
}
