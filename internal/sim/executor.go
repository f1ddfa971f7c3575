package sim

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/netmodel"
	"repro/internal/proto"
)

// This file implements the simulator's one executor. It runs both schedules
// — the synchronous round of RunRound (§5.1) below and the asynchronous
// wavefront period of async.go — across W >= 1 shards, with results
// bit-for-bit identical for any W and the same seed. One shard runs every
// phase inline on the caller's goroutine: no workers, no channels, nothing
// to close. The sequential walks these schedules were first written as
// survive as the reference the equivalence suites compare against
// (seqref_test.go).
//
// Time. Both schedules walk the period's instants in order: every instant
// with delayed arrivals pending (the in-flight ring's wheel names them) is
// a barrier of its own, at its true virtual time, and ticks are positions
// in that walk — the period boundary for every synchronous tick, a fixed
// phase offset for an async one. The round clock is the same walk with one
// instant per period, so round-granular delay models give byte-identical
// results on either clock, whatever the period length; the bridge tests
// assert it. Arrivals come before ticks at the same instant.
//
// Determinism argument. A synchronous round is two kinds of work:
//
//  1. Tick phase — every alive process emits its periodic gossip. Each
//     engine draws only from its own split RNG and touches only its own
//     state, so ticks of distinct processes commute. Shards are contiguous
//     index ranges and each shard appends into its own outbox in index
//     order; concatenating the outboxes in shard order yields the queue a
//     single walk over all processes builds.
//  2. Barrier — the network applies crash filtering and Bernoulli loss,
//     then receivers handle their messages, and same-instant responses are
//     chased hop by hop (asyncBarrier, shared with the wavefront). The loss
//     model draws from one shared RNG whose draw order is observable, so
//     routing/filtering stays sequential (it is O(1) per message and
//     cheap). Handling, the expensive part, is fanned out: survivors are
//     binned per destination shard preserving queue order, each worker
//     handles only its own processes' messages (per-engine state again),
//     and every response span is tagged with the triggering message's queue
//     position so the next hop's queue is reassembled in trigger order
//     whatever the shard count — and whatever order the shard handled its
//     processes in. The handling-order contract (docs/ARCHITECTURE.md)
//     fixes only one process's order, queue order; across processes within
//     a hop it is unspecified, and handleShard visits a shard's inbox
//     grouped by destination so that an engine's several gossips of one
//     hop are handled back to back.
//
// Delivery recording is a commutative set-union (see recorder), so the
// only shared mutable state touched concurrently is behind its lock.
//
// Steady-state allocation argument. NewCluster builds every engine in
// emission reuse (the same seam the live node uses over Serializer
// transports): TickCompose recycles one gossip and its backing slices per
// engine. Recycling is safe here because an engine's scratch is only
// rewritten by its next TickCompose, which cannot run before the next
// round's tick phase — and by then the current round's outbox has been
// fully consumed: the sequential loss/crash filter has routed it, every
// handle phase has read it, and the span merge has drained the response
// buffers. All executor buffers (outboxes, inboxes, response spans, the
// hop queues) are retained across rounds, phase closures are built once,
// and the workers are persistent goroutines signalled over channels, so a
// steady-state round performs no allocation at all (see
// TestExecutorRoundAllocs). PoisonRecycled overwrites the recycled
// buffers with sentinels at the end of every round to catch any future
// consumer that holds them longer than the round.

// effectiveWorkers resolves the Workers option to a shard count in [1, n]:
// 0 means one shard and a negative value GOMAXPROCS.
func effectiveWorkers(workers, n int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// routed is a queue message that survived filtering, bound for the process
// at index di. pos is its position in the hop's message queue, which orders
// response merging across shards. Both fit 32 bits with room to spare: a
// hop's queue is at most a few messages per process.
type routed struct {
	pos, di int32
}

// respSpan records that handling the message at queue position pos
// appended responses [start, end) to its shard's response buffer.
type respSpan struct {
	pos, start, end int
}

// workerPool owns the executor's persistent worker channels — none when
// there is one shard. It is a separate allocation from the executor so
// that its shutdown can hang off the cluster's poolToken: the pool must not
// reference the cluster, or the finalizer would never fire.
type workerPool struct {
	once sync.Once
	work []chan func(int)
}

// shutdown closes every worker channel, terminating the workers. Safe to
// call more than once and concurrently (Cluster.Close plus the cleanup).
func (p *workerPool) shutdown() {
	p.once.Do(func() {
		for _, ch := range p.work {
			close(ch)
		}
	})
}

// poolToken carries a cluster's worker pool to its finalizer. Only the
// Cluster references it, so it becomes unreachable with the cluster. The
// finalizer cannot sit on the Cluster itself: the cluster and its executor
// reference each other, and Go does not run finalizers on cyclic garbage.
type poolToken struct{ pool *workerPool }

// poolCleanup arranges for the worker pool to shut down once the cluster
// becomes unreachable — the backstop for clusters that are never Closed.
func poolCleanup(c *Cluster, pool *workerPool) {
	c.poolToken = &poolToken{pool}
	runtime.SetFinalizer(c.poolToken, func(t *poolToken) { t.pool.shutdown() })
}

// shardWorker runs phase functions for shard s until its work channel
// closes. Workers deliberately reference only their channel and the wait
// group — never the executor or cluster — so an abandoned cluster becomes
// unreachable and its pool cleanup can fire.
func shardWorker(s int, work <-chan func(int), wg *sync.WaitGroup) {
	for fn := range work {
		fn(s)
		wg.Done()
	}
}

// shardedExecutor runs a Cluster's rounds and periods across its shards.
// All scratch buffers are retained between rounds and the engines run in
// emission-reuse mode, so the steady state of a large experiment does not
// allocate.
type shardedExecutor struct {
	c       *Cluster
	workers int
	lo, hi  []int // shard s owns process indices [lo[s], hi[s])
	shardOf []int // process index -> shard

	tickBufs [][]proto.Message // per-shard tick outboxes (shard 0: see tickShard)
	inboxes  [][]routed        // per-shard surviving messages, queue order
	groups   []destGroups      // per-shard scratch of handleShard's grouping
	resps    [][]proto.Message // per-shard response buffers
	spans    [][]respSpan      // per-shard response spans
	cursors  []int             // span-merge read positions, one per shard
	queue    []proto.Message   // current hop's messages
	next     []proto.Message   // next hop's messages

	pool      *workerPool
	wg        *sync.WaitGroup // shared with the workers; reused every phase
	tickFn    func(s int)     // built once: per-phase closures must not allocate
	handleFn  func(s int)
	composeFn func(s int)

	// Wavefront async state (async.go); but for aComposed, which every
	// delivery consults, allocated when the cluster runs async periods.
	// aComposed[i] tracks an outstanding valid speculative emission — cleared
	// when a commit consumes it, never set by a synchronous round.
	aOrder        []int             // position -> process index
	aComposed     []bool            // per process: valid speculative emission outstanding
	aEmit         [][]proto.Message // per process: the composed emission
	waveFront     int               // compose-phase window bounds, set before each
	waveWindowEnd int               // parallel compose phase

	poison bool // overwrite recycled buffers with sentinels after each round
}

// newShardedExecutor partitions the cluster's processes into w contiguous
// shards (1 <= w <= N, see effectiveWorkers) and, when there is more than
// one, starts the persistent workers.
func newShardedExecutor(c *Cluster, w int) *shardedExecutor {
	e := &shardedExecutor{
		c:         c,
		workers:   w,
		lo:        make([]int, w),
		hi:        make([]int, w),
		shardOf:   make([]int, len(c.ids)),
		tickBufs:  make([][]proto.Message, w),
		inboxes:   make([][]routed, w),
		groups:    make([]destGroups, w),
		resps:     make([][]proto.Message, w),
		spans:     make([][]respSpan, w),
		cursors:   make([]int, w),
		aComposed: make([]bool, len(c.ids)),
		pool:      new(workerPool),
		wg:        new(sync.WaitGroup),
		poison:    c.opts.PoisonRecycled,
	}
	n := len(c.ids)
	base, rem := n/w, n%w
	start := 0
	for s := 0; s < w; s++ {
		size := base
		if s < rem {
			size++
		}
		e.lo[s], e.hi[s] = start, start+size
		for i := start; i < start+size; i++ {
			e.shardOf[i] = s
		}
		start += size
	}
	e.tickFn = e.tickShard
	e.handleFn = e.handleShard
	e.composeFn = e.composeShard
	if c.opts.Async {
		// On the event clock the period order is the static phase order; the
		// round clock shuffles aOrder afresh each period.
		e.aOrder = phaseOrder(c.phase)
		e.aEmit = make([][]proto.Message, n)
	}
	if w == 1 {
		return e // every phase runs inline: no workers, nothing to clean up
	}
	for s := 0; s < w; s++ {
		ch := make(chan func(int), 1)
		e.pool.work = append(e.pool.work, ch)
		go shardWorker(s, ch, e.wg)
	}
	// Backstop for clusters that are never Closed (the experiment runners
	// do close): once the cluster is collectable, release the workers.
	poolCleanup(c, e.pool)
	return e
}

// parallel runs fn(shard) for every shard and waits: on the workers, or
// inline on the caller's goroutine when there is one shard. fn must be one
// of the prebuilt phase closures; building a closure here would put an
// allocation on the per-round path.
func (e *shardedExecutor) parallel(fn func(s int)) {
	if e.workers == 1 {
		fn(0)
		return
	}
	e.wg.Add(e.workers)
	for _, ch := range e.pool.work {
		ch <- fn
	}
	e.wg.Wait()
}

// tickShard emits shard s's gossips in process index order. Shard 0 is
// first in merge order, so it appends straight onto the hop queue, behind
// whatever arrivals are already there, and a one-shard round never copies
// its emissions; the other shards touch only their own outboxes meanwhile.
// Under PoisonRecycled shard 0 keeps an outbox too: the hop queue is
// rewritten by the chase, and the end-of-round poisoning needs every tick
// gossip reachable.
func (e *shardedExecutor) tickShard(s int) {
	c := e.c
	direct := s == 0 && !e.poison
	buf := e.tickBufs[s][:0]
	if direct {
		buf = e.queue
	}
	for i := e.lo[s]; i < e.hi[s]; i++ {
		if c.crashes.Crashed(c.ids[i], c.now) {
			continue
		}
		p := c.procs[i]
		buf = p.TickCompose(c.now, buf)
		p.TickCommit(c.now)
	}
	if direct {
		e.queue = buf
	} else {
		e.tickBufs[s] = buf
	}
}

// emitTicks runs the tick phase and leaves every alive process's gossip on
// the hop queue in process index order (shard order), behind what the
// queue already holds.
func (e *shardedExecutor) emitTicks() {
	e.parallel(e.tickFn)
	for s := 0; s < e.workers; s++ {
		e.queue = append(e.queue, e.tickBufs[s]...)
	}
}

// destGroups is one shard's scratch for grouping a hop's inbox by
// destination. Everything in it is grown on first use and retained, and
// count is all zeros between hops — each hop clears exactly the entries it
// touched — so a barrier costs O(len(inbox)) whatever the shard's size.
type destGroups struct {
	count  []int32    // per process of the shard: its messages this hop, then its group's next free place
	firsts []int32    // the processes addressed this hop, in first-touch order
	order  []int32    // inbox indices in handling order
	spanAt []int32    // inbox index -> 1 + index of the span it produced
	sorted []respSpan // the spans back in queue order; swapped with the shard's span list
}

// byDestination returns shard s's inbox indices in handling order: grouped
// by destination process, groups in order of their first message, each
// group in queue order. It is a counting scatter, two passes over the inbox
// and none over the shard. A hop whose destinations are all distinct — the
// usual arrival instant of the event clock — is handled as it is queued,
// and the result is nil.
func (e *shardedExecutor) byDestination(s int) []int32 {
	inbox := e.inboxes[s]
	if len(inbox) < 2 {
		return nil
	}
	g := &e.groups[s]
	if g.count == nil {
		g.count = make([]int32, e.hi[s]-e.lo[s])
	}
	lo := int32(e.lo[s])
	firsts := g.firsts[:0]
	for _, r := range inbox {
		if g.count[r.di-lo] == 0 {
			firsts = append(firsts, r.di-lo)
		}
		g.count[r.di-lo]++
	}
	g.firsts = firsts
	var order []int32
	if len(firsts) < len(inbox) {
		next := int32(0)
		for _, k := range firsts {
			next, g.count[k] = next+g.count[k], next
		}
		order = slices.Grow(g.order[:0], len(inbox))[:len(inbox)]
		for j, r := range inbox {
			order[g.count[r.di-lo]] = int32(j)
			g.count[r.di-lo]++
		}
		g.order = order
	}
	for _, k := range firsts {
		g.count[k] = 0
	}
	return order
}

// handleShard processes shard s's surviving messages, recording response
// spans. The messages are handled grouped by destination (byDestination):
// an engine that receives several gossips in one hop — F(1-ε) of them on
// average — meets the second and third with its view, buffers and digest
// still in cache. That is within the handling-order contract
// (docs/ARCHITECTURE.md): one process's messages keep their queue order,
// and processes do not observe each other within a hop. The spans, which
// come out in handling order, go back into queue order before
// mergeResponses reads them.
func (e *shardedExecutor) handleShard(s int) {
	c := e.c
	inbox := e.inboxes[s]
	order := e.byDestination(s)
	resp := e.resps[s][:0]
	spans := e.spans[s][:0]
	for j := range inbox {
		if order != nil {
			j = int(order[j])
		}
		r := inbox[j]
		start := len(resp)
		resp = c.procs[r.di].HandleMessageAppend(e.queue[r.pos], c.now, resp)
		if len(resp) > start {
			// pos holds the inbox index until the spans are back in order.
			spans = append(spans, respSpan{pos: j, start: start, end: len(resp)})
		}
	}
	e.resps[s] = resp
	if order != nil && len(spans) > 0 {
		// An inbox is in queue order, so ascending inbox index is ascending
		// pos: place every span at its message's index and sweep.
		g := &e.groups[s]
		at := slices.Grow(g.spanAt[:0], len(inbox))[:len(inbox)]
		clear(at)
		for k, sp := range spans {
			at[sp.pos] = int32(k + 1)
		}
		sorted := g.sorted[:0]
		for _, k := range at {
			if k != 0 {
				sorted = append(sorted, spans[k-1])
			}
		}
		g.spanAt = at
		spans, g.sorted = sorted, spans
	}
	for k := range spans {
		spans[k].pos = int(inbox[spans[k].pos].pos)
	}
	e.spans[s] = spans
}

// runRound executes one synchronous gossip period. Cluster.RunRound has
// already advanced c.now.
func (e *shardedExecutor) runRound() {
	c := e.c
	pEnd := c.now * c.periodMs
	// Arrival instants inside the period are mini-rounds of their own.
	e.arrivalBarrier(pEnd - 1)
	// The boundary's queue: its delayed arrivals first (in their in-flight
	// enqueue order, with their arrival accounting applied), then the ticks
	// in process index order, filtered in queue order; one chase for both.
	e.land(pEnd)
	pre := len(e.queue)
	e.emitTicks()
	for pos := pre; pos < len(e.queue); pos++ {
		e.asyncRoute(pos, e.queue[pos])
	}
	e.asyncBarrier()
}

// land starts the barrier of instant at: the queue and the inboxes are
// emptied, and the instant's delayed arrivals — already filtered at send
// time, settled here — take the queue's first positions, binned straight
// to their destination shards.
func (e *shardedExecutor) land(at uint64) {
	c := e.c
	c.nowMs = at
	e.clearInboxes()
	e.queue, c.arrivalDests = c.settleArrivals(at, e.queue[:0], c.arrivalDests[:0])
	for pos, di := range c.arrivalDests {
		e.asyncBin(pos, di)
	}
}

// arrivalBarrier walks every pending arrival instant up to and including
// limit: each instant's survivors are handled by the wave barrier
// (same-instant response chase included) at their true virtual time.
func (e *shardedExecutor) arrivalBarrier(limit uint64) {
	for at, ok := e.c.network.Due(limit); ok; at, ok = e.c.network.Due(limit) {
		e.land(at)
		e.asyncBarrier()
	}
}

// clearInboxes empties every shard's inbox ahead of a filter phase.
func (e *shardedExecutor) clearInboxes() {
	for s := range e.inboxes {
		e.inboxes[s] = e.inboxes[s][:0]
	}
}

// mergeResponses reassembles the next hop's queue into e.next, ascending
// by the triggering message's queue position — the order one walk over the
// whole queue would have produced. Every shard's span list is already
// sorted by pos (handleShard leaves it so, whatever order it handled the
// inbox in), so a cursor merge across shards needs neither a sort nor
// scratch allocation.
func (e *shardedExecutor) mergeResponses() {
	for s := 0; s < e.workers; s++ {
		e.cursors[s] = 0
	}
	e.next = e.next[:0]
	for {
		best := -1
		for s := 0; s < e.workers; s++ {
			if e.cursors[s] == len(e.spans[s]) {
				continue
			}
			if best < 0 || e.spans[s][e.cursors[s]].pos < e.spans[best][e.cursors[best]].pos {
				best = s
			}
		}
		if best < 0 {
			break
		}
		sp := e.spans[best][e.cursors[best]]
		e.cursors[best]++
		e.next = append(e.next, e.resps[best][sp.start:sp.end]...)
	}
}

// poisonMessages overwrites the message slots — and, through their shared
// pointers, the gossip contents — of a recycled buffer with sentinels
// (netmodel.Sentinel): any late consumer surfaces as a loud divergence from
// the reference walk instead of a silent heisenbug.
func poisonMessages(msgs []proto.Message) {
	for i := range msgs {
		if g := msgs[i].Gossip; g != nil {
			netmodel.PoisonGossip(g)
		}
	}
	poisonSlots(msgs)
}

// poisonSlots overwrites only the message slots of a recycled buffer. It is
// for buffers that hold copies of envelopes: their gossips belong to
// whoever emitted them — an engine, reached through its outbox, or the
// in-flight ring, where a body stays live for as long as one envelope
// still in the air carries it.
func poisonSlots(msgs []proto.Message) {
	for i := range msgs {
		msgs[i] = proto.Message{From: netmodel.Sentinel, To: netmodel.Sentinel}
	}
}

// poisonRecycled overwrites every buffer this period recycled — the
// outboxes and per-process composed emissions (and, through them, the
// shared scratch gossips), and the executor-owned response and queue slots
// — with sentinel values; the delay ring poisons its just-drained arrivals
// itself, in RunRound's EndPeriod. The hop queues hold copies of emissions,
// of responses and of arrivals, and an arrival's gossip may still be in the
// air for another receiver: only their slots are overwritten. Correct
// phases never read any of it after the period, so poisoned runs must stay
// bit-for-bit identical to unpoisoned ones; the reuse property tests assert
// exactly that.
func (e *shardedExecutor) poisonRecycled() {
	for i := range e.aEmit {
		poisonMessages(e.aEmit[i])
	}
	for s := 0; s < e.workers; s++ {
		poisonMessages(e.tickBufs[s])
		poisonMessages(e.resps[s])
	}
	poisonSlots(e.queue)
	poisonSlots(e.next)
}
