package sim

import "repro/internal/proto"

// This file implements the sequential event-clock executors: the cluster's
// timer wheel (internal/event) replaces the implicit "everything happens at
// the round boundary" schedule with an explicit, totally ordered event walk
// over millisecond virtual time. One RunRound still advances exactly one
// gossip period — round r covers the instants ((r-1)*periodMs, r*periodMs]
// — so the experiment runners drive both clocks identically.
//
// Two timer kinds exist, and their numeric order is their same-instant
// priority: arrivals fire before ticks, matching the round executors'
// drain-arrivals-then-tick order.
//
// # Synchronous mode (runEventRoundSeq)
//
// Every process's tick timer fires at each period boundary, rescheduling
// itself; each due instant is processed as one mini-round — the instant's
// arrivals drain into the queue prefix, due ticks emit in process index
// order (the wheel's Seq order, pinned at construction and preserved by
// in-order rescheduling), and the shared dispatch chases responses at that
// instant. For round-granular delay models every arrival lands exactly on a
// period boundary, so the walk degenerates to one mini-round per period
// that is structurally identical to RunRound's round-clock body: the bridge
// tests assert byte-for-byte equal results. Millisecond models
// (fault.Millis) land arrivals between boundaries, where they are handled
// at their true instants.
//
// # Asynchronous mode (runEventPeriodAsyncSeq)
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
// in async.go, so the sharded mirror (executor_event.go) reproduces the
// walk bit-for-bit for any worker count.

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

// runEventRoundSeq advances one synchronous gossip period on the event
// clock, sequentially. Cluster.RunRound has already advanced c.now.
func (c *Cluster) runEventRoundSeq() {
	pEnd := c.now * c.periodMs
	reuse := c.opts.EmissionReuse
	for {
		at, ok := c.wheel.Next()
		if !ok || at > pEnd {
			break
		}
		batch := c.wheel.PopAt(at)
		c.nowMs = at
		queue := c.seqQueue[:0]
		c.arrivalDests = c.arrivalDests[:0]
		pre := 0
		for _, tm := range batch {
			if tm.Kind == evKindArrival {
				// At most one marker per instant (armed dedups), sorted to
				// the batch front, so arrivals form the queue prefix.
				queue, c.arrivalDests = c.drainArrivalsAt(at, queue, c.arrivalDests)
				pre = len(queue)
				continue
			}
			i := int(tm.Ref)
			c.wheel.Schedule(at+c.periodMs, evKindTick, tm.Ref)
			if c.crashes.Crashed(c.ids[i], c.now) {
				continue
			}
			if reuse {
				queue = tickAppend(c.procs[i], c.now, queue)
			} else {
				queue = append(queue, c.procs[i].Tick(c.now)...)
			}
		}
		c.seqQueue = queue
		c.dispatch(pre)
	}
	c.nowMs = pEnd
}

// eventArrivalBarrierSeq drains every due arrival instant up to and
// including limit, handling each instant's survivors (and their same-
// instant response chase) at its true virtual time. An arrival addressed
// to a process with an outstanding speculative tick invalidates it,
// exactly like a wave delivery.
func (c *Cluster) eventArrivalBarrierSeq(a *asyncSeq, limit uint64) {
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
		a.queue, a.dests = c.drainArrivalsAt(at, a.queue[:0], a.dests[:0])
		for _, di := range a.dests {
			if a.composed[di] {
				abortTick(c.procs[di])
				a.composed[di] = false
			}
		}
		if len(a.queue) > 0 {
			c.asyncBarrierSeq(a)
		}
	}
}

// runEventPeriodAsyncSeq advances one asynchronous gossip period on the
// event clock, sequentially: the wavefront schedule of runAsyncPeriodSeq
// over the static phase order, with arrival sub-barriers pinning every
// arrival to its instant. Cluster.RunRound has already advanced c.now.
func (c *Cluster) runEventPeriodAsyncSeq() {
	n := len(c.procs)
	a := c.seqAsync
	if a == nil {
		a = newAsyncSeq(n)
		c.seqAsync = a
	}
	for i := 0; i < n; i++ {
		a.composed[i] = false
	}
	base := (c.now - 1) * c.periodMs
	copy(a.order, c.evOrder)
	lookahead := asyncLookahead(n)

	front := 0
	for front < n {
		// Everything due before (or at) the front tick's instant is visible
		// to it; drain and handle it before the wave composes.
		c.eventArrivalBarrierSeq(a, base+c.phase[a.order[front]])
		windowEnd := front + lookahead
		if windowEnd > n {
			windowEnd = n
		}
		for k := front; k < windowEnd; k++ {
			i := a.order[k]
			if a.composed[i] || c.crashes.Crashed(c.ids[i], c.now) {
				continue
			}
			a.emit[i] = composeTick(c.procs[i], c.now, a.emit[i][:0])
			a.composed[i] = true
		}
		a.queue, a.dests = a.queue[:0], a.dests[:0]
		waveEnd := windowEnd
		for k := front; k < windowEnd; k++ {
			i := a.order[k]
			if c.crashes.Crashed(c.ids[i], c.now) {
				continue
			}
			// End the wave before a tick whose instant a pending arrival
			// predates: that arrival must land (and possibly invalidate
			// speculations) first. The check reads only the wheel, a pure
			// function of the simulation state.
			if na, pending := c.wheel.Next(); pending && na <= base+c.phase[i] {
				waveEnd = k
				break
			}
			if !a.composed[i] {
				waveEnd = k
				break
			}
			c.nowMs = base + c.phase[i]
			commitTick(c.procs[i], c.now)
			a.composed[i] = false // consumed: no emission outstanding
			for _, m := range a.emit[i] {
				c.asyncFilterSeq(a, m)
			}
		}
		c.asyncBarrierSeq(a)
		front = waveEnd
	}
	// End-of-period flush: arrivals after the last tick but inside the
	// period land now, leaving the wheel parked at the boundary.
	c.eventArrivalBarrierSeq(a, c.now*c.periodMs)
	c.nowMs = c.now * c.periodMs
}
