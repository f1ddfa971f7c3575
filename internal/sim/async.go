package sim

import (
	"sort"

	"repro/internal/proto"
)

// This file defines the deterministic wavefront schedule for asynchronous
// gossip periods (Options.Async) and runs it on the cluster's shards. The
// schedule itself — wave boundaries, filter order, handle order, response
// merges — is a pure function of the simulation state, so the shard count
// only changes *where* the work runs: results are bit-for-bit identical
// for any worker count — the async counterpart of the synchronous-round
// guarantee (executor.go).
//
// # The wavefront schedule
//
// An async period models the paper's unsynchronized regime (§3.2,
// "non-synchronized periodical gossips"): processes tick once per period
// in a random order, and a process that receives fresh information before
// its own tick forwards it within the same period. The historical
// implementation dispatched each tick's messages immediately, which made
// the period inherently serial. The wavefront schedule keeps the defining
// property — every delivery that reaches a process before its tick commits
// is visible to that tick — while exposing parallelism:
//
//  1. The period's tick order is fixed up front. On the event clock every
//     process ticks at its own phase offset within the period (drawn once
//     at construction) and the order is ascending (phase, index); on the
//     round clock, where a period is one instant and every phase is its
//     boundary, the order is drawn afresh (one Shuffle from the cluster's
//     tick stream) — the one difference between the clocks here, and it is
//     the model's, not the code's.
//  2. Ticks are composed speculatively: TickCompose builds a tick's
//     emission without consuming the engine's buffers, for every process
//     in a bounded lookahead window past the commit frontier. Composes
//     touch only their own engine, so each shard composes its own
//     processes' ticks concurrently (composeShard).
//  3. A sequential commit walk visits positions in period order. Each
//     clean position's tick commits (TickCommit) and its messages are
//     filtered in emission order (asyncRoute) — the shared loss stream and
//     the network counters draw in walk order, like the synchronous
//     round's sequential filter phase. A surviving delivery addressed to a
//     process whose tick is composed but not yet committed *invalidates*
//     that speculation: the tick is aborted (TickAbort rewinds its RNG
//     draws) and the walk's wave ends when it reaches the first
//     invalidated position — that tick must be re-executed against the
//     committed state, which now includes the delivery.
//  4. At the wave barrier (asyncBarrier) the wave's surviving deliveries
//     are handled — per-receiver work, fanned out across the shards like a
//     synchronous round's handle phase — and same-wave responses are
//     chased hop by hop under the maxChase cap, filtering each hop in the
//     cursor merge's deterministic order. Barrier deliveries to processes
//     beyond the frontier invalidate their speculations the same way.
//  5. The next wave re-composes every invalidated or newly windowed tick
//     and the walk resumes from the frontier, until the period commits all
//     positions.
//  6. A tick at instant t observes exactly the delayed arrivals at
//     instants <= t: every due instant up to the wave front's is drained
//     and handled (arrivalBarrier) before the wave composes, and the commit
//     walk ends a wave early at a tick that a pending arrival instant does
//     not come after. On the round clock that is one barrier at the top of
//     the period; on the event clock arrivals interleave with the waves at
//     their true instants, and the period ends by flushing what is due
//     after its last tick.
//
// Relative to the historical immediate-dispatch semantics, deliveries now
// land at wave barriers instead of between individual ticks (and a wave's
// response chase shares one maxChase budget). The regime's character is
// unchanged — waves are short, so information still travels roughly two
// hops per period — but seeded async results differ numerically from
// pre-wavefront versions.
//
// Steady-state allocation mirrors the synchronous argument: engines run in
// emission reuse (an aborted compose rewrites the same scratch on
// re-execution, and a committed emission is fully consumed by its wave's
// barrier — before the engine's next compose, which happens no earlier
// than the next period), the per-process emission buffers and the
// queue/inbox/response machinery are retained across periods, and all
// phase closures are prebuilt, so a steady async period does not allocate
// (see TestAsyncRoundAllocs). PoisonRecycled overwrites the recycled
// emission and response buffers at the end of every period.

// asyncLookahead bounds how far past the commit frontier ticks are
// composed speculatively. A small window wastes less speculation (fewer
// composed ticks get invalidated by deliveries) but costs more waves per
// period; n/8 with a floor of 64 keeps both overheads low. The window is a
// function of the cluster size only — never of the worker count — because
// wave boundaries are part of the deterministic schedule.
func asyncLookahead(n int) int {
	if l := n / 8; l > 64 {
		return l
	}
	return 64
}

// phaseOrder returns the process indices in ascending (phase, index) order:
// the event clock's walk through a period.
func phaseOrder(phase []uint64) []int {
	order := make([]int, len(phase))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return phase[order[a]] < phase[order[b]] })
	return order
}

// tickComposer is the speculative-emission seam of the wavefront schedule
// (core.Engine and pbcast.Node both implement it): TickCompose builds an
// emission without consuming it, TickAbort discards it rewinding the RNG
// draws, and TickCommit applies the deferred buffer consumption.
type tickComposer interface {
	TickCompose(now uint64, out []proto.Message) []proto.Message
	TickAbort()
	TickCommit(now uint64)
}

// composeTick drives p's speculative emission, falling back to a plain
// (state-mutating) tick for foreign Process implementations. The fallback
// cannot roll back: an invalidated fallback compose is simply discarded
// and composed again, advancing the foreign process's state twice.
func composeTick(p Process, now uint64, out []proto.Message) []proto.Message {
	if tc, ok := p.(tickComposer); ok {
		return tc.TickCompose(now, out)
	}
	return append(out, p.Tick(now)...)
}

// abortTick invalidates p's outstanding speculative emission.
func abortTick(p Process) {
	if tc, ok := p.(tickComposer); ok {
		tc.TickAbort()
	}
}

// commitTick commits p's outstanding speculative emission.
func commitTick(p Process, now uint64) {
	if tc, ok := p.(tickComposer); ok {
		tc.TickCommit(now)
	}
}

// composeShard speculatively composes the ticks of shard s's processes
// inside the current wave window. Composes touch only their own engine
// (plus per-process executor slots), so shards race on nothing; the
// window bounds are published before the phase starts.
func (e *shardedExecutor) composeShard(s int) {
	c := e.c
	for k := e.waveFront; k < e.waveWindowEnd; k++ {
		i := e.aOrder[k]
		if e.shardOf[i] != s || e.aComposed[i] {
			continue
		}
		if c.crashes.Crashed(c.ids[i], c.now) {
			continue
		}
		e.aEmit[i] = composeTick(c.procs[i], c.now, e.aEmit[i][:0])
		e.aComposed[i] = true
	}
}

// runAsyncPeriod executes one asynchronous gossip period under the
// wavefront schedule. Cluster.RunRound has already advanced c.now.
func (e *shardedExecutor) runAsyncPeriod() {
	c := e.c
	n := len(c.procs)
	clear(e.aComposed)
	if c.opts.Clock == ClockRounds {
		// Every phase is the boundary, so the phase order says nothing: the
		// round clock draws the period's tick order instead, one Shuffle of
		// the identity from the cluster's tick stream.
		for i := range e.aOrder {
			e.aOrder[i] = i
		}
		c.tickRNG.Shuffle(n, func(i, j int) { e.aOrder[i], e.aOrder[j] = e.aOrder[j], e.aOrder[i] })
	}
	pEnd := c.now * c.periodMs
	base := pEnd - c.periodMs
	lookahead := asyncLookahead(n)

	front := 0
	for front < n {
		// Everything due before (or at) the front tick's instant is visible
		// to it; drain and handle it before the wave composes.
		e.arrivalBarrier(base + c.phase[e.aOrder[front]])
		windowEnd := min(front+lookahead, n)
		// Compose phase (parallel): (re)compose every windowed tick
		// without a valid speculation, sharded by process ownership.
		// aComposed[i] is cleared by the commit that consumes the emission,
		// so a position the walk has passed can never look composed again
		// (the window never moves backwards) — which is what the
		// invalidation check in asyncBin relies on.
		e.waveFront, e.waveWindowEnd = front, windowEnd
		e.parallel(e.composeFn)
		// Commit walk (sequential): commit clean positions in period
		// order, filtering their messages as they commit — the shared
		// loss stream draws in walk order — and stop at the first
		// invalidated speculation, or at a tick whose instant a pending
		// arrival instant does not come after: the arrival lands (and
		// possibly invalidates speculations) first. That check reads only
		// the ring's wheel, a pure function of the simulation state.
		e.queue = e.queue[:0]
		e.clearInboxes()
		waveEnd := windowEnd
		for k := front; k < windowEnd; k++ {
			i := e.aOrder[k]
			if c.crashes.Crashed(c.ids[i], c.now) {
				continue // a crashed position commits trivially
			}
			at := base + c.phase[i]
			if _, pending := c.fl.due(at); pending || !e.aComposed[i] {
				waveEnd = k
				break
			}
			c.nowMs = at
			e.commitEmission(i)
		}
		// Wave barrier: sharded handle fan-out plus response chase.
		e.asyncBarrier()
		front = waveEnd
	}
	// End-of-period flush: arrivals after the last tick but inside the
	// period land now.
	e.arrivalBarrier(pEnd)
	c.nowMs = pEnd
}

// commitEmission commits process i's composed tick and routes its messages
// in emission order; the survivors join the wave's queue.
func (e *shardedExecutor) commitEmission(i int) {
	c := e.c
	commitTick(c.procs[i], c.now)
	e.aComposed[i] = false // consumed: no emission outstanding
	for _, m := range e.aEmit[i] {
		if e.asyncRoute(len(e.queue), m) {
			e.queue = append(e.queue, m)
		}
	}
}

// asyncRoute runs m, the message at (or bound for) queue position pos,
// through crash/loss filtering and the network counters (classify) and
// reports whether it survived; a survivor is binned into the destination
// shard's inbox (asyncBin). Calls happen in deterministic walk/merge order, so
// the shared loss stream's draw order is schedule-defined, exactly like the
// synchronous round's sequential filter phase.
func (e *shardedExecutor) asyncRoute(pos int, m proto.Message) bool {
	c := e.c
	di, ok := c.classify(m)
	if !ok {
		return false
	}
	e.asyncBin(pos, di)
	return true
}

// asyncBin queues the delivery at queue position pos for the shard of its
// destination di, behind what the shard's inbox already holds: an inbox is
// in queue order, which is what lets handleShard group it by destination
// and still hand each process its messages, and mergeResponses the spans,
// in that order. If di's tick is composed but not committed, the
// speculation missed this delivery: it is aborted, and re-executes.
func (e *shardedExecutor) asyncBin(pos, di int) {
	if e.aComposed[di] {
		abortTick(e.c.procs[di])
		e.aComposed[di] = false
	}
	s := e.shardOf[di]
	e.inboxes[s] = append(e.inboxes[s], routed{pos: int32(pos), di: int32(di)})
}

// asyncBarrier handles the wave's surviving deliveries — each shard
// processes its own processes' messages, every process's in queue order
// (handleShard) — and chases
// same-wave responses hop by hop under the shared maxChase cap: responses
// are reassembled in trigger order by the cursor merge, filtered
// sequentially (consuming loss draws in merge order and invalidating
// speculations), and handled in turn. Responses still raw when the cap
// hits are counted as truncated. The synchronous round's boundary and every
// arrival instant run this same barrier; nothing queued is no barrier.
func (e *shardedExecutor) asyncBarrier() {
	c := e.c
	if len(e.queue) == 0 {
		return
	}
	for hop := 0; ; hop++ {
		e.parallel(e.handleFn)
		e.mergeResponses()
		if len(e.next) == 0 {
			return
		}
		if hop+1 >= maxChase {
			c.net.TruncatedChase += uint64(len(e.next))
			return
		}
		e.queue, e.next = e.next, e.queue
		e.clearInboxes()
		for pos := range e.queue {
			e.asyncRoute(pos, e.queue[pos])
		}
	}
}
