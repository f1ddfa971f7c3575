package sim

import (
	"errors"
	"fmt"
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
	// seqQueue/seqNext are the synchronous walk's retained hop buffers;
	// they just recycle envelope capacity.
	seqQueue, seqNext []proto.Message
}

// newSeqRef builds the cluster opts describes, takes its engines out of
// emission reuse, and runs the warmup rounds through the reference.
func newSeqRef(opts Options) (*seqRef, error) {
	warmup := opts.WarmupRounds
	opts.WarmupRounds = 0
	opts.Workers = 1
	c, err := NewCluster(opts)
	if err != nil {
		return nil, err
	}
	for _, p := range c.procs {
		p.(interface{ SetEmissionReuse(bool) }).SetEmissionReuse(false)
	}
	r := &seqRef{Cluster: c}
	for i := 0; i < warmup; i++ {
		r.RunRound()
	}
	return r, nil
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
		if c.crashes.Crashed(c.ids[i], c.now) {
			continue
		}
		queue = append(queue, tickClone(c.procs[i], c.now)...)
	}
	c.seqQueue = queue
	c.dispatchSeq(pre)
}

// tickClone is the cloning tick the reference walks were written on: a
// synchronous tick (TickCompose, then TickCommit) whose every message
// carries its own deep copy of the gossip and of the request, so nothing a
// walk queues aliases an engine's buffers.
func tickClone(p Process, now uint64) []proto.Message {
	msgs := p.TickCompose(now, nil)
	p.TickCommit(now)
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
	c.net.TruncatedChase += uint64(len(queue))
	c.seqQueue, c.seqNext = queue, next
}

// route runs m through the network model with the cluster's verdict on its
// destination, as the executor's asyncRoute does, and returns the
// destination's process index when m is delivered now.
func (c *seqRef) route(m proto.Message) (int, bool) {
	di, known, alive := c.verdict(m.To)
	return di, c.network.Classify(&m, c.now, c.nowMs, known, alive, &c.net)
}

// asyncSeq is the retained scratch state of the sequential wavefront
// executor; every buffer is reused across periods.
//
// composed[i] tracks whether process i has a valid speculative emission
// outstanding. A commit consumes the emission, so it clears the flag
// too: a position the walk has passed can never look composed again
// (the window never moves backwards), which is exactly what the
// invalidation check relies on.
type asyncSeq struct {
	order    []int             // position -> process index
	composed []bool            // per process: valid speculative emission outstanding
	emit     [][]proto.Message // per process: the composed emission
	queue    []proto.Message   // current hop's surviving deliveries
	dests    []int             // their destination process indices
	raw      []proto.Message   // responses collected by the current handle pass
}

func newAsyncSeq(n int) *asyncSeq {
	return &asyncSeq{
		order:    make([]int, n),
		composed: make([]bool, n),
		emit:     make([][]proto.Message, n),
	}
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
	for i := 0; i < n; i++ {
		a.composed[i] = false
	}
	// Arrival barrier: this period's delayed arrivals are handled before
	// any tick composes (a message arriving "between periods" is visible
	// to every tick of its arrival period), in their deterministic
	// in-flight enqueue order, and their same-period responses are chased
	// through the regular wave-barrier machinery. The drain draws no
	// randomness, so running it before the period's shuffle keeps every
	// stream aligned with the sharded executor, which does the same.
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
		windowEnd := front + lookahead
		if windowEnd > n {
			windowEnd = n
		}
		// Compose phase: (re)compose every windowed tick without a valid
		// speculation. This is the phase the parallel executor shards.
		for k := front; k < windowEnd; k++ {
			i := a.order[k]
			if a.composed[i] || c.crashes.Crashed(c.ids[i], c.now) {
				continue
			}
			a.emit[i] = c.procs[i].TickCompose(c.now, a.emit[i][:0])
			a.composed[i] = true
		}
		// Commit walk: commit clean positions in period order, filtering
		// their messages as they commit; stop at the first invalidated
		// speculation (it re-executes against committed state next wave).
		a.queue, a.dests = a.queue[:0], a.dests[:0]
		waveEnd := windowEnd
		for k := front; k < windowEnd; k++ {
			i := a.order[k]
			if c.crashes.Crashed(c.ids[i], c.now) {
				continue // a crashed position commits trivially
			}
			if !a.composed[i] {
				waveEnd = k
				break
			}
			c.procs[i].TickCommit(c.now)
			a.composed[i] = false // consumed: no emission outstanding
			for _, m := range a.emit[i] {
				c.asyncFilterSeq(a, m)
			}
		}
		// Wave barrier: handle the wave's deliveries and chase responses.
		c.asyncBarrierSeq(a)
		front = waveEnd
	}
}

// asyncFilterSeq runs one message through the network model and its
// counters (route), appending survivors to the wave queue and
// invalidating the destination's speculative tick when one is
// outstanding. Filter calls happen in deterministic walk/merge order, so
// the shared loss stream's draw order is schedule-defined, exactly like
// the synchronous executor's sequential filter phase.
func (c *seqRef) asyncFilterSeq(a *asyncSeq, m proto.Message) {
	di, ok := c.route(m)
	if !ok {
		return
	}
	if a.composed[di] {
		// The destination's tick is composed but not committed: the
		// speculation missed this delivery, so it re-executes.
		c.procs[di].TickAbort()
		a.composed[di] = false
	}
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
			c.net.TruncatedChase += uint64(len(a.raw))
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
			if c.crashes.Crashed(c.ids[i], c.now) {
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
// instant response chase) at its true virtual time. An arrival addressed
// to a process with an outstanding speculative tick invalidates it,
// exactly like a wave delivery.
func (c *seqRef) eventArrivalBarrierSeq(a *asyncSeq, limit uint64) {
	for {
		at, ok := c.network.Due(limit)
		if !ok {
			return
		}
		c.nowMs = at
		a.queue, a.dests = c.settleArrivals(at, a.queue[:0], a.dests[:0])
		for _, di := range a.dests {
			if a.composed[di] {
				c.procs[di].TickAbort()
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
func (c *seqRef) runEventPeriodAsyncSeq() {
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
	a.order = phaseOrder(c.phase)
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
			a.emit[i] = c.procs[i].TickCompose(c.now, a.emit[i][:0])
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
			// speculations) first. The check reads only the ring's wheel, a
			// pure function of the simulation state.
			if _, pending := c.network.Due(base + c.phase[i]); pending {
				waveEnd = k
				break
			}
			if !a.composed[i] {
				waveEnd = k
				break
			}
			c.nowMs = base + c.phase[i]
			c.procs[i].TickCommit(c.now)
			a.composed[i] = false // consumed: no emission outstanding
			for _, m := range a.emit[i] {
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
