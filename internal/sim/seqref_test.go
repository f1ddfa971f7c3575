package sim

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// This file is the reference the executor's equivalence suites compare
// against: the sequential walks the schedules were first written as —
// one goroutine, no shards, no inboxes, no span merge — kept as they were
// when the simulator still ran them (Workers <= 1, before the one-shard
// case of the sharded executor replaced them), on the cloning tick
// (tickClone) with emission reuse off: four of them, a
// synchronous and an async one per clock, the oracle for the executor's two
// step functions on both. The round-clock walks know one instant per period
// and no phases; the event-clock ones walk the ring's pending instants. They
// share the cluster's network model (internal/netmodel: the filter, the
// in-flight ring and its wheel of arrival markers) and nothing of the
// executor, so a divergence between a Workers=W run and the
// reference is a bug in the executor's shard/merge machinery or in the
// recycling paths, whatever W is.

// seqRef steps a Cluster through the reference walks instead of its
// executor. The embedded cluster's own RunRound must not be called.
type seqRef struct {
	*Cluster
	seqAsync *asyncSeq // sequential wavefront scratch (Async)
	// eventOrder is the event clock's walk order, computed apart from the
	// executor's phaseOrder (refPhaseOrder) once: phases are drawn at
	// NewCluster and never change.
	eventOrder []int
	// seqQueue/seqNext are the synchronous walk's retained hop buffers;
	// they just recycle envelope capacity.
	seqQueue, seqNext []proto.Message
}

// newSeqRef builds the cluster opts describes, unbinds its engines from the
// executor's arenas and takes them out of emission reuse, so every tick cuts
// from a fresh arena, and runs the warmup rounds through the reference.
func newSeqRef(opts Options) (*seqRef, error) {
	warmup := opts.WarmupRounds
	opts.WarmupRounds = 0
	opts.Workers = 1
	c, err := NewCluster(opts)
	if err != nil {
		return nil, err
	}
	for _, p := range c.procs {
		p.(interface{ SetEmitArena(*proto.EmitArena) }).SetEmitArena(nil)
		p.(interface{ SetEmissionReuse(bool) }).SetEmissionReuse(false)
	}
	r := &seqRef{Cluster: c, eventOrder: refPhaseOrder(c.phase)}
	for i := 0; i < warmup; i++ {
		r.RunRound()
	}
	return r, nil
}

// refPhaseOrder returns the process indices stably sorted by phase: the
// event clock's (phase, index) walk order, as the reference computes it.
func refPhaseOrder(phase []uint64) []int {
	order := make([]int, len(phase))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return phase[order[a]] < phase[order[b]] })
	return order
}

// RunRound advances the reference one gossip period: Cluster.RunRound with
// the four sequential bodies in place of the executor's.
func (c *seqRef) RunRound() {
	c.now++
	event := c.opts.Clock == ClockEvent
	if !event {
		c.nowMs = c.now // the round clock: period p is instant p
	}
	switch {
	case event && c.opts.Async:
		c.runEventPeriodAsyncSeq()
	case event:
		c.runEventRoundSeq()
	case c.opts.Async:
		c.runAsyncPeriodSeq()
	default:
		c.runRoundSeq()
	}
	c.network.EndPeriod(c.nowMs)
}

// runRoundSeq is the synchronous round of the round clock.
func (c *seqRef) runRoundSeq() {
	var queue []proto.Message
	queue, c.arrivalDests = c.settleArrivals(c.now, c.seqQueue[:0], c.arrivalDests[:0])
	pre := len(queue)
	for i := range c.procs {
		if c.procs[i] == nil || c.crashes.Crashed(c.ids[i], c.now) {
			continue // an empty slot, or a crashed process
		}
		queue = append(queue, tickClone(c.procs[i], c.now)...)
	}
	c.seqQueue = queue
	c.dispatchSeq(pre)
}

// Add is Cluster.Add with p taken out of the arena and of emission reuse,
// as newSeqRef takes the processes it builds.
func (c *seqRef) Add(p Process, ledger *NetStats) {
	c.Cluster.Add(p, ledger)
	p.(interface{ SetEmitArena(*proto.EmitArena) }).SetEmitArena(nil)
	p.(interface{ SetEmissionReuse(bool) }).SetEmissionReuse(false)
}

// Route is Cluster.Route through the reference's dispatch: m is filtered
// and handled, and its responses chased.
func (c *seqRef) Route(m proto.Message) {
	c.seqQueue = append(c.seqQueue[:0], m)
	c.dispatchSeq(0)
}

// tickClone is the cloning tick the reference walks were written on: a
// tick (TickAppend) whose every message
// carries its own deep copy of the gossip and of the request, so nothing a
// walk queues aliases an engine's buffers.
func tickClone(p Process, now uint64) []proto.Message {
	msgs := p.TickAppend(now, nil)
	for i := range msgs {
		if msgs[i].Gossip != nil {
			gc := msgs[i].Gossip.Clone()
			msgs[i].Gossip = &gc
		}
		if msgs[i].Request != nil {
			msgs[i].Request = append([]proto.EventID(nil), msgs[i].Request...)
		}
	}
	return msgs
}

// dispatchSeq delivers the round's queue (c.seqQueue), chasing same-round
// responses. The first pre messages of the queue are this round's delayed
// arrivals: they already passed send-time filtering and arrival
// accounting, so they skip the filter and go straight to their receivers —
// in queue order, ahead of the round's fresh traffic, matching the
// sharded executor's merge order exactly.
func (c *seqRef) dispatchSeq(pre int) {
	queue, next := c.seqQueue, c.seqNext
	for hop := 0; len(queue) > 0 && hop < maxChase; hop++ {
		next = next[:0]
		for pos, m := range queue {
			var di int
			if pos < pre {
				di = c.arrivalDests[pos] // pre-filtered arrival
			} else {
				var ok bool
				if di, ok = c.route(m); !ok {
					continue
				}
			}
			next = c.procs[di].HandleMessageAppend(m, c.now, next)
		}
		queue, next = next, queue
		pre = 0
	}
	// Responses still queued when the chase cap hit would otherwise vanish
	// without a trace; account for them so the counters stay conservative.
	for _, m := range queue {
		c.ledger(m.From).TruncatedChase++
	}
	c.seqQueue, c.seqNext = queue, next
}

// route runs m through the network model with the cluster's verdict on its
// destination, as the executor's asyncRoute does, and returns the
// destination's process index when m is delivered now.
func (c *seqRef) route(m proto.Message) (int, bool) {
	di, known, alive := c.verdict(m.To)
	return di, c.network.Classify(&m, c.now, c.nowMs, known, alive, c.ledger(m.From))
}

// asyncSeq is the retained scratch state of the sequential wavefront
// walk; every buffer is reused across periods.
//
// hit[i] is the number of the last commit walk that routed a delivery to
// process i. Walks are numbered from one and never reuse a number, so
// hit[i] == walk says exactly that the current walk reached i, and a
// position whose process it reached ends the wave: that tick must see the
// delivery, which lands at the wave's barrier.
type asyncSeq struct {
	order []int           // position -> process index
	hit   []int           // per process: the last walk that routed it a delivery
	walk  int             // the current commit walk's number
	queue []proto.Message // current hop's surviving deliveries
	dests []int           // their destination process indices
	raw   []proto.Message // responses collected by the current handle pass
}

func newAsyncSeq(n int) *asyncSeq {
	return &asyncSeq{order: make([]int, n), hit: make([]int, n)}
}

// runAsyncPeriodSeq advances one asynchronous gossip period through the
// wavefront schedule on a single goroutine. Cluster.RunRound has already
// advanced c.now.
func (c *seqRef) runAsyncPeriodSeq() {
	n := len(c.procs)
	a := c.seqAsync
	if a == nil {
		a = newAsyncSeq(n)
		c.seqAsync = a
	}
	// Arrival barrier: this period's delayed arrivals are handled before
	// any tick (a message arriving "between periods" is visible to every
	// tick of its arrival period), in their deterministic in-flight enqueue
	// order, and their same-period responses are chased through the
	// regular wave-barrier machinery. The drain draws no randomness, so
	// running it before the period's shuffle keeps every stream aligned
	// with the sharded executor, which does the same.
	a.queue, a.dests = c.settleArrivals(c.now, a.queue[:0], a.dests[:0])
	if len(a.queue) > 0 {
		c.asyncBarrierSeq(a)
	}
	for i := range a.order {
		a.order[i] = i
	}
	c.tickRNG.Shuffle(n, func(i, j int) { a.order[i], a.order[j] = a.order[j], a.order[i] })
	lookahead := asyncLookahead(n)

	front := 0
	for front < n {
		windowEnd := min(front+lookahead, n)
		// Commit walk: tick positions in period order, filtering their
		// messages as they tick; stop at the first position this walk
		// routed a delivery to (it ticks next wave, after the delivery).
		a.walk++
		a.queue, a.dests = a.queue[:0], a.dests[:0]
		waveEnd := windowEnd
		for k := front; k < windowEnd; k++ {
			i := a.order[k]
			if c.crashes.Crashed(c.ids[i], c.now) {
				continue // a crashed position commits trivially
			}
			if a.hit[i] == a.walk {
				waveEnd = k
				break
			}
			for _, m := range tickClone(c.procs[i], c.now) {
				c.asyncFilterSeq(a, m)
			}
		}
		// Wave barrier: handle the wave's deliveries and chase responses.
		c.asyncBarrierSeq(a)
		front = waveEnd
	}
}

// asyncFilterSeq runs one message through the network model and its
// counters (route), appending survivors to the wave queue and marking
// their destination as reached by the current walk. Filter calls happen
// in deterministic walk/merge order, so the shared loss stream's draw
// order is schedule-defined, exactly like the synchronous executor's
// sequential filter phase.
func (c *seqRef) asyncFilterSeq(a *asyncSeq, m proto.Message) {
	di, ok := c.route(m)
	if !ok {
		return
	}
	a.hit[di] = a.walk
	a.queue = append(a.queue, m)
	a.dests = append(a.dests, di)
}

// asyncBarrierSeq handles the wave's surviving deliveries in queue order
// and chases same-wave responses hop by hop: each hop's responses are
// filtered in trigger order (asyncFilterSeq) and handled in turn, up to
// the shared maxChase cap; responses still raw when the cap hits are
// counted as truncated, mirroring dispatchSeq.
func (c *seqRef) asyncBarrierSeq(a *asyncSeq) {
	for hop := 0; ; hop++ {
		a.raw = a.raw[:0]
		for x := range a.queue {
			a.raw = c.procs[a.dests[x]].HandleMessageAppend(a.queue[x], c.now, a.raw)
		}
		if len(a.raw) == 0 {
			return
		}
		if hop+1 >= maxChase {
			for _, m := range a.raw {
				c.ledger(m.From).TruncatedChase++
			}
			return
		}
		a.queue, a.dests = a.queue[:0], a.dests[:0]
		for _, m := range a.raw {
			c.asyncFilterSeq(a, m)
		}
		if len(a.queue) == 0 {
			return
		}
	}
}

// runEventRoundSeq advances one synchronous gossip period on the event
// clock, sequentially: every pending arrival instant inside the period is
// a mini-round of arrivals only, and the boundary's queue is its arrivals
// and then every process's tick, in index order. Cluster.RunRound has
// already advanced c.now.
func (c *seqRef) runEventRoundSeq() {
	pEnd := c.now * c.periodMs
	for boundary := false; !boundary; {
		at, ok := c.network.Due(pEnd)
		if !ok {
			at = pEnd
		}
		boundary = at == pEnd
		c.nowMs = at
		var queue []proto.Message
		queue, c.arrivalDests = c.settleArrivals(at, c.seqQueue[:0], c.arrivalDests[:0])
		pre := len(queue)
		for i := 0; boundary && i < len(c.procs); i++ {
			if c.procs[i] == nil || c.crashes.Crashed(c.ids[i], c.now) {
				continue
			}
			queue = append(queue, tickClone(c.procs[i], c.now)...)
		}
		c.seqQueue = queue
		c.dispatchSeq(pre)
	}
}

// eventArrivalBarrierSeq drains every due arrival instant up to and
// including limit, handling each instant's survivors (and their same-
// instant response chase) at its true virtual time.
func (c *seqRef) eventArrivalBarrierSeq(a *asyncSeq, limit uint64) {
	for {
		at, ok := c.network.Due(limit)
		if !ok {
			return
		}
		c.nowMs = at
		a.queue, a.dests = c.settleArrivals(at, a.queue[:0], a.dests[:0])
		if len(a.queue) > 0 {
			c.asyncBarrierSeq(a)
		}
	}
}

// runEventPeriodAsyncSeq advances one asynchronous gossip period on the
// event clock, sequentially: the wavefront schedule of runAsyncPeriodSeq
// over the static phase order, with arrival sub-barriers pinning every
// arrival to its instant. Cluster.RunRound has already advanced c.now.
func (c *seqRef) runEventPeriodAsyncSeq() {
	n := len(c.procs)
	a := c.seqAsync
	if a == nil {
		a = newAsyncSeq(n)
		c.seqAsync = a
	}
	base := (c.now - 1) * c.periodMs
	a.order = c.eventOrder
	lookahead := asyncLookahead(n)

	front := 0
	for front < n {
		// Everything due before (or at) the front tick's instant is visible
		// to it; drain and handle it before the wave's walk.
		c.eventArrivalBarrierSeq(a, base+c.phase[a.order[front]])
		windowEnd := min(front+lookahead, n)
		a.walk++
		a.queue, a.dests = a.queue[:0], a.dests[:0]
		waveEnd := windowEnd
		for k := front; k < windowEnd; k++ {
			i := a.order[k]
			if c.crashes.Crashed(c.ids[i], c.now) {
				continue
			}
			// End the wave before a tick whose instant a pending arrival
			// predates: that arrival must land first. The check reads only
			// the ring's wheel, a pure function of the simulation state.
			if _, pending := c.network.Due(base + c.phase[i]); pending {
				waveEnd = k
				break
			}
			if a.hit[i] == a.walk {
				waveEnd = k
				break
			}
			c.nowMs = base + c.phase[i]
			for _, m := range tickClone(c.procs[i], c.now) {
				c.asyncFilterSeq(a, m)
			}
		}
		c.asyncBarrierSeq(a)
		front = waveEnd
	}
	// End-of-period flush: arrivals after the last tick but inside the
	// period land now.
	c.eventArrivalBarrierSeq(a, c.now*c.periodMs)
	c.nowMs = c.now * c.periodMs
}

// refInfectionExperiment is InfectionExperiment with every cluster stepped
// by the reference.
func refInfectionExperiment(opts Options, rounds, repeats int) (InfectionResult, error) {
	if opts.Horizon == 0 {
		opts.Horizon = uint64(rounds)
	}
	sum := make([]float64, rounds+1)
	for rep := 0; rep < repeats; rep++ {
		o := opts
		o.Seed = opts.Seed + uint64(rep)*1_000_003
		cluster, err := newSeqRef(o)
		if err != nil {
			return InfectionResult{}, err
		}
		traced, err := cluster.PublishAt(0)
		if err != nil {
			return InfectionResult{}, err
		}
		sum[0] += float64(cluster.DeliveredCount(traced.ID))
		for r := 1; r <= rounds; r++ {
			cluster.RunRound()
			sum[r] += float64(cluster.DeliveredCount(traced.ID))
		}
	}
	for i := range sum {
		sum[i] /= float64(repeats)
	}
	return InfectionResult{PerRound: sum, Runs: repeats}, nil
}

// refReliabilityExperiment is ReliabilityExperiment with the cluster
// stepped by the reference.
func refReliabilityExperiment(opts ReliabilityOptions) (ReliabilityResult, error) {
	cl := opts.Cluster
	if cl.Horizon == 0 {
		cl.Horizon = uint64(opts.PublishRounds + opts.DrainRounds)
	}
	cluster, err := newSeqRef(cl)
	if err != nil {
		return ReliabilityResult{}, err
	}
	pubRNG := rng.New(cl.Seed ^ 0x9e3779b97f4a7c15)

	var published []proto.EventID
	for r := 0; r < opts.PublishRounds; r++ {
		for k := 0; k < opts.Rate; k++ {
			i := pubRNG.Intn(cluster.N())
			if cluster.Crashed(proto.ProcessID(i + 1)) {
				continue // a crashed process publishes nothing
			}
			ev, err := cluster.PublishAt(i)
			if err != nil {
				return ReliabilityResult{}, err
			}
			published = append(published, ev.ID)
		}
		cluster.RunRound()
	}
	for r := 0; r < opts.DrainRounds; r++ {
		cluster.RunRound()
	}

	res := ReliabilityResult{
		Events: len(published),
		Net:    cluster.NetStats(),
	}
	if len(published) == 0 {
		return res, errors.New("sim: no events were published")
	}
	n := cluster.N()
	total := 0
	res.MinPerEvent = n
	for _, id := range published {
		c := cluster.DeliveredCount(id)
		total += c
		if c < res.MinPerEvent {
			res.MinPerEvent = c
		}
	}
	res.MeanPerEvent = float64(total) / float64(len(published))
	res.Reliability = float64(total) / float64(len(published)*n)
	res.Partitioned = cluster.Graph().Partitioned()
	return res, nil
}

// shardCounts is what an equivalence suite runs against the reference: the
// inline one-shard case, an odd count (few of the suites' system sizes are
// multiples of three, so the shards come out uneven), and the suite's own
// count — GOMAXPROCS where it asks for the machine's.
func shardCounts(own int) []int {
	counts := []int{1, 3}
	if own != 1 && own != 3 {
		counts = append(counts, own)
	}
	return counts
}

// assertMatchesRef runs the infection experiment on every given shard
// count and asserts each result byte-identical to the reference's, which it
// returns. PoisonRecycled in opts poisons the executor's runs; the reference
// recycles nothing.
func assertMatchesRef(t *testing.T, label string, opts Options, rounds, repeats int, workers ...int) InfectionResult {
	t.Helper()
	ref, err := refInfectionExperiment(opts, rounds, repeats)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		o := opts
		o.Workers = w
		got, err := InfectionExperiment(o, rounds, repeats)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, fmt.Sprintf("%s/workers=%d", label, w), ref, got)
	}
	return ref
}

// assertReliabilityMatchesRef is assertMatchesRef for the reliability
// experiment, network counters included.
func assertReliabilityMatchesRef(t *testing.T, label string, opts ReliabilityOptions, workers ...int) ReliabilityResult {
	t.Helper()
	ref, err := refReliabilityExperiment(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		o := opts
		o.Cluster.Workers = w
		got, err := ReliabilityExperiment(o)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, fmt.Sprintf("%s/workers=%d", label, w), ref, got)
	}
	return ref
}
