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
// with delayed arrivals pending (the in-flight ring's scheduler names them) is
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
//     index ranges and each shard appends in index order — shard 0 onto
//     the hop queue, the others into their own outboxes — so the queue and
//     then the outboxes, in shard order, hold the hop a single walk over
//     all processes emits. The filter routes the outboxes where they are,
//     positions running on past the queue; nothing is concatenated.
//  2. Barrier — the network applies crash filtering and Bernoulli loss,
//     then receivers handle their messages, and same-instant responses are
//     chased hop by hop (asyncBarrier, shared with the wavefront). The loss
//     model draws from one shared RNG whose draw order is observable, so
//     routing/filtering stays sequential (it is O(1) per message and
//     cheap). Handling, the expensive part, is fanned out: survivors are
//     binned per destination shard preserving queue order, each worker
//     handles only its own processes' messages (per-engine state again),
//     and every response span is tagged with the triggering message's
//     position so the next hop's queue is reassembled in trigger order
//     whatever the shard count — and whatever order the shard handled its
//     processes in. A gossip in its canonical form travels in its inbox
//     entry (routed), so the handle walk reads nothing in the sender's
//     order for it. The handling-order contract (docs/ARCHITECTURE.md)
//     fixes only one process's order, queue order; across processes within
//     a hop it is unspecified, and handleShard visits a shard's inbox
//     grouped by destination, in ascending process index, so that an
//     engine's several gossips of one hop are handled back to back and the
//     shard's engines are visited in the order their state was laid out.
//     The gossips' own first lines sit in the senders' arenas; the walk
//     loads them a block of touchBlock entries ahead (readAhead), so their
//     cache misses overlap. That read changes nothing: it writes only a
//     per-shard sum, and every gossip it reads is alive until the hop ends.
//
// Delivery recording is a commutative set-union (see recorder), so the
// only shared mutable state touched concurrently is behind its lock.
//
// Steady-state allocation argument. No engine owns emission storage. Each
// shard has one emission arena (proto.EmitArena, Cluster.emit), and every
// engine is bound to its shard's arena as it is built, while it is still in
// cache rather than in a second walk over every engine: construction shards
// are executor shards (shardRange). A tick cuts its gossip header, the
// gossip's lists and its targets, each at its exact length, from its
// shard's arena, so the shards never share one and the tick phase needs no
// lock. An emission is dead once every message that carries it has been
// handled (Fig. 1(b)): the sequential loss/crash filter has routed them,
// every handle phase has read them, the span merge has drained the response
// buffers, and whatever the in-flight ring parked has arrived, at the
// latest G-1 periods later (netmodel.Model.Generations). So each arena
// keeps G generations, and RunRound rotates the arenas last — after
// poisonRecycled and the network's EndPeriod — taking back the generation
// of G periods ago; an arena keeps what its G busiest periods needed. All
// executor buffers (the outboxes of shards 1..W-1, the inboxes and their
// grouping scratch, the response buffers and spans, the two hop queues,
// the arenas) are retained across rounds, phase closures are
// built once, and the workers are persistent goroutines signalled over
// channels, so a steady-state round performs no allocation at all (see
// TestExecutorRoundAllocs). PoisonRecycled overwrites the recycled message
// slots with sentinels at the end of every round, and the arenas poison
// every gossip they take back, to catch any consumer that holds them
// longer than they live.

// effectiveWorkers resolves the Workers option to a shard count in [1, n]:
// 0 means one shard and a negative value GOMAXPROCS.
func effectiveWorkers(workers, n int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// routed is a hop's message that survived filtering, bound for the process
// at index di. pos is its position in the hop, which orders response
// merging across shards; both fit 32 bits, a hop being a few messages per
// process. g is set when the message is exactly the canonical gossip
// Message{Kind: GossipMsg, From: g.From, To: ids[di], Gossip: g}, as every
// gossip an engine emits is: handleShard rebuilds it from the entry rather
// than read its slot, which lies in the sender's order.
type routed struct {
	pos, di int32
	g       *proto.Gossip
}

// respSpan records that handling the message at position pos appended
// responses [start, end) to its shard's response buffer.
type respSpan struct {
	pos, start, end int32
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
// All scratch buffers and the shards' emission arenas are retained between
// rounds, so the steady state of a large experiment does not allocate.
type shardedExecutor struct {
	c       *Cluster
	workers int
	lo, hi  []int // shard s owns process indices [lo[s], hi[s])
	shardOf []int // process index -> shard

	tickBufs [][]proto.Message // per-shard tick outboxes, routed in place (shard 0's: the async tick's; see tickShard)
	inboxes  [][]routed        // per-shard surviving messages, queue order
	groups   []destGroups      // per-shard scratch of handleShard's grouping
	resps    [][]proto.Message // per-shard response buffers
	spans    [][]respSpan      // per-shard response spans
	cursors  []int             // span-merge read positions, one per shard
	queue    []proto.Message   // current hop's messages
	next     []proto.Message   // next hop's messages

	pool     *workerPool
	wg       *sync.WaitGroup // shared with the workers; reused every phase
	tickFn   func(s int)     // built once: per-phase closures must not allocate
	handleFn func(s int)

	// Wavefront async state (async.go), allocated when the cluster runs
	// async periods.
	aOrder []int   // position -> process index
	aHit   []int32 // per process: the wave of this period that last routed it a delivery
	waves  int32   // waves so far in this period, the current one included
}

// shardRange is shard s's process indices [lo, hi) when n processes are
// cut into w contiguous shards, the first n%w of them one longer. It is the
// one partition construction (buildEngines) and execution share, so a
// construction shard's pools hold exactly the engines its executor shard
// runs.
func shardRange(s, w, n int) (lo, hi int) {
	base, rem := n/w, n%w
	lo = s*base + min(s, rem)
	if hi = lo + base; s < rem {
		hi++
	}
	return lo, hi
}

// newShardedExecutor partitions the cluster's processes into w contiguous
// shards (1 <= w <= N, see effectiveWorkers) — shardRange's, the ones the
// engines' emission arenas were bound by — and, when there is more than
// one, starts the persistent workers.
func newShardedExecutor(c *Cluster, w int) *shardedExecutor {
	e := &shardedExecutor{
		c:        c,
		workers:  w,
		lo:       make([]int, w),
		hi:       make([]int, w),
		shardOf:  make([]int, len(c.ids)),
		tickBufs: make([][]proto.Message, w),
		inboxes:  make([][]routed, w),
		groups:   make([]destGroups, w),
		resps:    make([][]proto.Message, w),
		spans:    make([][]respSpan, w),
		cursors:  make([]int, w),
		pool:     new(workerPool),
		wg:       new(sync.WaitGroup),
	}
	n := len(c.ids)
	for s := 0; s < w; s++ {
		e.lo[s], e.hi[s] = shardRange(s, w, n)
		for i := e.lo[s]; i < e.hi[s]; i++ {
			e.shardOf[i] = s
		}
	}
	e.tickFn = e.tickShard
	e.handleFn = e.handleShard
	if c.opts.Async {
		// On the event clock the period order is the static phase order; the
		// round clock shuffles aOrder afresh each period.
		e.aOrder = phaseOrder(c.phase)
		e.aHit = make([]int32, n)
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
// first in shard order, so it appends straight onto the hop queue, behind
// whatever arrivals are already there, and one shard keeps no outbox beside
// its two hop queues (one would cost a loaded round of 1 000 about 114 B a
// process); runRound routes the other shards' outboxes where they are.
func (e *shardedExecutor) tickShard(s int) {
	c := e.c
	buf := e.tickBufs[s][:0]
	if s == 0 {
		buf = e.queue
	}
	for i := e.lo[s]; i < e.hi[s]; i++ {
		if c.procs[i] == nil || c.crashes.Crashed(c.ids[i], c.now) {
			continue // an empty slot, or a crashed process
		}
		buf = c.procs[i].TickAppend(c.now, buf)
	}
	if s == 0 {
		e.queue = buf
	} else {
		e.tickBufs[s] = buf
	}
}

// slot is the message at position pos of a barrier's hop. The queue holds
// a hop's first positions; on the synchronous boundary (runRound) the
// outboxes of shards 1..W-1, in shard order, hold the positions past it.
// Every later hop lies wholly in the queue.
func (e *shardedExecutor) slot(pos int) *proto.Message {
	if pos < len(e.queue) {
		return &e.queue[pos]
	}
	pos -= len(e.queue)
	for _, out := range e.tickBufs[1:] {
		if pos < len(out) {
			return &out[pos]
		}
		pos -= len(out)
	}
	panic("sim: a routed position past the hop")
}

// destGroups is one shard's scratch for grouping a hop's inbox by
// destination. Everything in it is grown on first use and retained, and
// count is all zeros between hops — each hop clears exactly the entries it
// touched — so a hop of m messages to k processes costs O(m + k log k),
// whatever the shard's size.
type destGroups struct {
	count  []int32    // per process of the shard: its messages this hop, then its group's next free place
	dests  []int32    // the processes addressed this hop, ascending
	order  []int32    // inbox indices in handling order
	spanAt []int32    // inbox index -> 1 + index of the span it produced
	sorted []respSpan // the spans back in queue order; swapped with the shard's span list
	// touched sums every word readAhead loaded, so that the compiler cannot
	// drop the loads as dead code. Nothing reads it.
	touched uint64
}

// byDestination returns shard s's inbox indices in handling order: grouped
// by destination process, groups in ascending process index, each group in
// queue order. A shard's engine slots (pool.Slab chunks) and their views'
// and subs' lists (the shard's arena) were built in process index order
// (buildEngines), so this walks the receivers' state in memory order, which
// the hardware prefetcher follows; at scale that state is far larger than
// the cache. It is a counting scatter, two passes over the inbox and a sort
// of the addressed processes, none over the shard. A hop already in that
// order — destinations distinct and ascending, like most arrival instants
// of the event clock — is handled as it is queued, and the result is nil.
func (e *shardedExecutor) byDestination(s int) []int32 {
	inbox := e.inboxes[s]
	inOrder := true
	for j := 1; j < len(inbox) && inOrder; j++ {
		inOrder = inbox[j-1].di < inbox[j].di
	}
	if inOrder {
		return nil
	}
	g := &e.groups[s]
	if n := e.hi[s] - e.lo[s]; len(g.count) < n { // a cluster built empty grows
		g.count = append(g.count, make([]int32, n-len(g.count))...)
	}
	lo := int32(e.lo[s])
	dests := g.dests[:0]
	for _, r := range inbox {
		if g.count[r.di-lo] == 0 {
			dests = append(dests, r.di-lo)
		}
		g.count[r.di-lo]++
	}
	slices.Sort(dests)
	g.dests = dests
	next := int32(0)
	for _, k := range dests {
		next, g.count[k] = next+g.count[k], next
	}
	order := slices.Grow(g.order[:0], len(inbox))[:len(inbox)]
	for j, r := range inbox {
		order[g.count[r.di-lo]] = int32(j)
		g.count[r.di-lo]++
	}
	g.order = order
	for _, k := range dests {
		g.count[k] = 0
	}
	return order
}

// touchBlock is how many inbox entries, in handling order, make one block of
// handleShard's read-ahead. A block of 32 measured no better.
const touchBlock = 16

// readAhead is handleShard's read-ahead at handling position k, the start
// of a block: it loads the gossip headers of the next block's entries, and
// the first element of Subs, Events and Digest of this block's, whose
// headers the call one block earlier loaded. Those lie in the senders'
// emission arenas, out of cache at scale; every address is known a hop
// ahead, so their misses overlap here instead of each stalling its
// handler in turn. It returns the sum of the words it loaded.
func readAhead(inbox []routed, order []int32, k int) (sum uint64) {
	for b := k; b < min(k+2*touchBlock, len(inbox)); b++ {
		j := b
		if order != nil {
			j = int(order[b])
		}
		g := inbox[j].g
		switch {
		case g == nil: // read from its slot when handled
		case b >= k+touchBlock:
			sum += uint64(g.From) + uint64(len(g.Digest))
		default:
			if len(g.Subs) > 0 {
				sum += uint64(g.Subs[0])
			}
			if len(g.Events) > 0 {
				sum += uint64(g.Events[0].ID.Seq)
			}
			if len(g.Digest) > 0 {
				sum += uint64(g.Digest[0].Seq)
			}
		}
	}
	return sum
}

// handleShard processes shard s's surviving messages, recording response
// spans. The messages are handled grouped by destination, processes in
// ascending index (byDestination): an engine that receives several gossips
// in one hop — F(1-ε) of them on average — meets the second and third with
// its view, buffers and digest still in cache, and the next engine's state
// lies just after its own. That is within the handling-order contract
// (docs/ARCHITECTURE.md): one process's messages keep their queue order,
// and processes do not observe each other within a hop. A gossip is handed
// over as it was binned, from its inbox entry; anything else is read from
// its slot. Every touchBlock entries the walk reads ahead in handling order
// (readAhead), which the contract leaves free: it is a pure read of gossips
// the emission arenas keep alive until the hop is handled, summed into the
// shard's destGroups.touched, which nothing reads. The spans, which come out
// in handling order, go back into queue order before mergeResponses reads
// them.
func (e *shardedExecutor) handleShard(s int) {
	c := e.c
	inbox := e.inboxes[s]
	order := e.byDestination(s)
	resp := e.resps[s][:0]
	spans := e.spans[s][:0]
	var touched uint64
	for k := range inbox {
		if k%touchBlock == 0 {
			touched += readAhead(inbox, order, k)
		}
		j := k
		if order != nil {
			j = int(order[k])
		}
		r := inbox[j]
		start := len(resp)
		if r.g != nil {
			resp = c.procs[r.di].HandleMessageAppend(proto.Message{Kind: proto.GossipMsg, From: r.g.From, To: c.ids[r.di], Gossip: r.g}, c.now, resp)
		} else {
			resp = c.procs[r.di].HandleMessageAppend(*e.slot(int(r.pos)), c.now, resp)
		}
		if len(resp) > start {
			// pos holds the inbox index until the spans are back in order.
			spans = append(spans, respSpan{pos: int32(j), start: int32(start), end: int32(len(resp))})
		}
	}
	e.resps[s] = resp
	e.groups[s].touched += touched
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
		spans[k].pos = inbox[spans[k].pos].pos
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
	pos := len(e.queue)
	e.parallel(e.tickFn)
	for ; pos < len(e.queue); pos++ {
		e.asyncRoute(pos, &e.queue[pos])
	}
	for _, out := range e.tickBufs[1:] {
		for k := range out {
			e.asyncRoute(pos, &out[k])
			pos++
		}
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
		e.asyncBin(pos, di, &e.queue[pos])
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

// poisonSlots overwrites the message slots of a recycled buffer with
// sentinels (netmodel.Sentinel): any late consumer surfaces as a loud
// divergence from the reference walk instead of a silent heisenbug.
func poisonSlots(msgs []proto.Message) {
	for i := range msgs {
		msgs[i] = proto.Message{From: netmodel.Sentinel, To: netmodel.Sentinel}
	}
}

// poisonRecycled overwrites the message slots of every buffer this period
// recycled — the outboxes, the response buffers and the hop queues — with
// sentinel values. What the slots reference is not theirs to poison: a
// gossip may still be in the air for another receiver, and its shard's
// arena poisons it when it takes it back (proto.EmitArena.SetPoison); the
// delay ring poisons its just-drained requests and replies itself, in
// RunRound's EndPeriod. Correct phases never read any of it after the
// period, so poisoned runs must stay bit-for-bit identical to unpoisoned
// ones; the reuse property tests assert exactly that.
func (e *shardedExecutor) poisonRecycled() {
	for s := 0; s < e.workers; s++ {
		poisonSlots(e.tickBufs[s])
		poisonSlots(e.resps[s])
	}
	poisonSlots(e.queue)
	poisonSlots(e.next)
}
