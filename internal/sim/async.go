package sim

import (
	"math/bits"
	"slices"

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
// its own tick forwards it within the same period. Every delivery that
// reaches a process before its tick is visible to that tick; deliveries
// are handled in waves so that the handling fans out across the shards:
//
//  1. The period's tick order is fixed up front. On the event clock every
//     process ticks at its own phase offset within the period (drawn once
//     at construction) and the order is ascending (phase, index); on the
//     round clock, where a period is one instant and every phase is its
//     boundary, the order is drawn afresh (one Shuffle from the cluster's
//     tick stream) — the one difference between the clocks here, and it is
//     the model's, not the code's.
//  2. A sequential commit walk visits positions in period order, at most
//     asyncLookahead of them per wave. Each position's process ticks
//     (TickAppend) when the walk reaches it, and its messages are filtered
//     in emission order (asyncRoute) — the shared loss stream and the
//     network counters draw in walk order, like the synchronous round's
//     sequential filter phase. The wave ends at the first position whose
//     process this walk routed a delivery to: that tick must see the
//     delivery, which is not handled yet.
//  3. At the wave barrier (asyncBarrier) the wave's surviving deliveries
//     are handled — per-receiver work, fanned out across the shards like a
//     synchronous round's handle phase — and same-wave responses are
//     chased hop by hop under the maxChase cap, filtering each hop in the
//     cursor merge's deterministic order.
//  4. The next wave's walk resumes where the last one stopped, until every
//     position has ticked.
//  5. A tick at instant t observes exactly the delayed arrivals at
//     instants <= t: every due instant up to the wave front's is drained
//     and handled (arrivalBarrier) before the wave's walk, and the walk
//     ends a wave early at a tick that a pending arrival instant does not
//     come after. On the round clock that is one barrier at the top of
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
// Steady-state allocation mirrors the synchronous argument: engines cut
// their emissions from their shards' arenas, which RunRound rotates once the
// period is over (an emission is consumed by its wave's barrier, or by the
// arrivals of what the in-flight ring parked, within the arenas' G
// generations), the queue/inbox/response machinery is retained across
// periods, and all phase closures are prebuilt, so a steady async period
// does not allocate (see TestAsyncRoundAllocs).

// asyncLookahead caps how many positions one wave's walk visits: n/8 with
// a floor of 64. The cap is a function of the cluster size only — never of
// the worker count — because wave boundaries are part of the deterministic
// schedule, and every seeded async result depends on them.
func asyncLookahead(n int) int {
	if l := n / 8; l > 64 {
		return l
	}
	return 64
}

// phaseOrder returns the process indices in ascending (phase, index) order:
// the event clock's walk through a period. It sorts the keys phase<<32 |
// index in the result itself and masks the phases off: the keys are
// distinct, so the order is stable by construction. A phase is at most
// maxPeriodMs (2²⁰) and an index below 2³², so a key needs a 64-bit int.
func phaseOrder(phase []uint64) []int {
	if bits.UintSize < 64 {
		panic("sim: the event clock's phase order needs a 64-bit int")
	}
	order := make([]int, len(phase))
	for i, p := range phase {
		order[i] = int(p<<32) | i
	}
	slices.Sort(order)
	for i := range order {
		order[i] = int(uint32(order[i]))
	}
	return order
}

// runAsyncPeriod executes one asynchronous gossip period under the
// wavefront schedule. Cluster.RunRound has already advanced c.now.
func (e *shardedExecutor) runAsyncPeriod() {
	c := e.c
	n := len(c.procs)
	clear(e.aHit)
	e.waves = 0
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
		// to it; drain and handle it before the wave's walk.
		e.arrivalBarrier(base + c.phase[e.aOrder[front]])
		// Commit walk (sequential): tick positions in period order,
		// filtering their messages as they tick — the shared loss stream
		// draws in walk order — and stop at the first position this walk
		// routed a delivery to, or at a tick whose instant a pending
		// arrival instant does not come after: the delivery or the arrival
		// lands first, and the tick sees it next wave. The arrival check
		// reads only the ring's scheduler, a pure function of the simulation
		// state.
		e.waves++
		e.queue = e.queue[:0]
		e.clearInboxes()
		waveEnd := min(front+lookahead, n)
		for k := front; k < waveEnd; k++ {
			i := e.aOrder[k]
			if c.crashes.Crashed(c.ids[i], c.now) {
				continue // a crashed position ticks trivially
			}
			at := base + c.phase[i]
			if _, pending := c.network.Due(at); pending || e.aHit[i] == e.waves {
				waveEnd = k
				break
			}
			c.nowMs = at
			e.tick(i)
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

// tick runs process i's tick onto the wave's queue and routes its messages
// where they lie, in emission order.
func (e *shardedExecutor) tick(i int) {
	pos := len(e.queue)
	e.queue = e.c.procs[i].TickAppend(e.c.now, e.queue)
	for ; pos < len(e.queue); pos++ {
		e.asyncRoute(pos, &e.queue[pos])
	}
}

// asyncRoute runs m, the message at position pos of the hop, through the
// network model and its sender's counters (netmodel.Model.Classify) and
// bins it into the destination shard's inbox (asyncBin) if it survives; a
// message that does not stays in its slot, and nothing reads it. Calls
// happen in deterministic walk/merge order, so the shared loss stream's
// draw order is schedule-defined, exactly like the synchronous round's
// sequential filter phase.
func (e *shardedExecutor) asyncRoute(pos int, m *proto.Message) {
	c := e.c
	di, known, alive := c.verdict(m.To)
	if c.network.Classify(m, c.now, c.nowMs, known, alive, c.ledger(m.From)) {
		e.asyncBin(pos, di, m)
	}
}

// asyncBin queues m, the delivery at position pos, for the shard of its
// destination di, behind what the shard's inbox already holds: an inbox is
// in queue order, which is what lets handleShard group it by destination
// and still hand each process its messages, and mergeResponses the spans,
// in that order. Every survivor passes here, routed now or landed from the
// delay ring, and the entry carries m's gossip when m is canonical (see
// routed). In an async period it also stamps di with the current wave,
// which ends the wave's walk at di's position if the walk has not passed
// it.
func (e *shardedExecutor) asyncBin(pos, di int, m *proto.Message) {
	if e.aHit != nil {
		e.aHit[di] = e.waves
	}
	r := routed{pos: int32(pos), di: int32(di)}
	if g := m.Gossip; m.Kind == proto.GossipMsg && g != nil && m.From == g.From && m.To == e.c.ids[di] &&
		m.Subscriber == 0 && m.Request == nil && m.Reply == nil && m.ReplyHops == nil {
		r.g = g
	}
	s := e.shardOf[di]
	e.inboxes[s] = append(e.inboxes[s], r)
}

// asyncBarrier handles the wave's surviving deliveries — each shard
// processes its own processes' messages, every process's in queue order
// (handleShard) — and chases
// same-wave responses hop by hop under the shared maxChase cap: responses
// are reassembled in trigger order by the cursor merge, filtered
// sequentially (consuming loss draws in merge order), and handled in turn.
// Responses still raw when the cap hits are counted as truncated in their
// senders' ledgers. The synchronous round's boundary and every
// arrival instant run this same barrier; nothing binned is no barrier.
func (e *shardedExecutor) asyncBarrier() {
	c := e.c
	if !slices.ContainsFunc(e.inboxes, func(in []routed) bool { return len(in) > 0 }) {
		return // nothing was binned
	}
	for hop := 0; ; hop++ {
		e.parallel(e.handleFn)
		e.mergeResponses()
		if len(e.next) == 0 {
			return
		}
		if hop+1 >= maxChase {
			for _, m := range e.next {
				c.ledger(m.From).TruncatedChase++
			}
			return
		}
		e.queue, e.next = e.next, e.queue
		e.clearInboxes()
		for pos := range e.queue {
			e.asyncRoute(pos, &e.queue[pos])
		}
	}
}
