package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
)

// The layer replay is the benchmark's own minimal loop over core engines:
// the workload's configuration and publish schedule, TickAppend per
// process, one fault decision per message, HandleMessageAppend per arrival
// — and nothing of the drivers' executors, rings, recorders or pools. Its
// spans give each layer's cost per call; what the driver costs beyond them
// is the executor's own share (sim.overhead_share). The replay must do the
// same protocol work as the driver, so every run asserts that its messages
// per process period are within replayTolerance of the driver's.
const replayTolerance = 0.02

// handleSpan names the span a message kind is handled under.
var handleSpan = map[proto.MessageKind]string{
	proto.GossipMsg:            "core.handle_gossip",
	proto.SubscribeMsg:         "core.handle_subscribe",
	proto.RetransmitRequestMsg: "core.handle_request",
	proto.RetransmitReplyMsg:   "core.handle_reply",
}

// replayStats is what a replay hands back besides its spans.
type replayStats struct {
	sent       uint64  // messages handed to the network
	procRounds float64 // process gossip periods executed
	timers     uint64  // wheel timers scheduled (event replay only)
	sample     []proto.Message
}

func (s replayStats) msgsPerProcRound() float64 { return ratio(float64(s.sent), s.procRounds) }

// sampleCap bounds the messages a replay keeps for the leaf probes.
const sampleCap = 512

// roundReplay is the round-clock, synchronous replay: the schedule of
// sim-loaded-seq and sim-scale-sharded.
type roundReplay struct {
	tr        *tracer
	engines   []*core.Engine
	crashAt   []uint64 // period from which a process is crashed; 0 = never
	loss      fault.LossModel
	origins   *gen
	publishes int
	now       uint64
	st        replayStats
	queue     []proto.Message
	next      []proto.Message
	surv      []proto.Message
	measuring bool
}

// newRoundReplay builds n engines with uniformly random views of size l,
// as the simulator seeds them, and a crash schedule over [1, crashHorizon].
func newRoundReplay(cfg core.Config, n int, epsilon, tau float64, crashHorizon int, publishes int, seed uint64) (*roundReplay, error) {
	root := rng.New(seed)
	r := &roundReplay{crashAt: make([]uint64, n),
		loss: fault.NewBernoulli(epsilon, root.Split()), origins: newGen(seed, "origins"), publishes: publishes}
	// Every message is consumed before its sender's next tick, so the
	// engines may recycle their emissions.
	engines, err := newReplayEngines(cfg, n, root, true)
	if err != nil {
		return nil, err
	}
	r.engines = engines
	g := newGen(seed, "crashes")
	for k := 0; k < int(tau*float64(n)); k++ {
		i := g.intn(n)
		for r.crashAt[i] != 0 {
			i = g.intn(n)
		}
		r.crashAt[i] = uint64(1 + g.intn(crashHorizon))
	}
	return r, nil
}

// newReplayEngines constructs n engines the way the simulator does — state
// drawn from pools, so they sit as densely in memory as the driver's, and
// uniformly random views of size l — with no delivery sink: deliveries are
// only counted.
func newReplayEngines(cfg core.Config, n int, root *rng.Source, reuse bool) ([]*core.Engine, error) {
	engines := make([]*core.Engine, n)
	pools := &core.Pools{}
	viewRNG := root.Split()
	var idx []int
	var view []proto.ProcessID
	for i := range engines {
		var src rng.Source
		root.SplitInto(&src)
		e, err := core.NewIn(proto.ProcessID(i+1), cfg, nil, src, pools)
		if err != nil {
			return nil, fmt.Errorf("replay: engine %d: %w", i+1, err)
		}
		e.SetEmissionReuse(reuse)
		idx = viewRNG.SampleAppend(idx[:0], n-1, cfg.Membership.MaxView)
		view = view[:0]
		for _, j := range idx {
			if j >= i { // map [0, n-2] onto the other processes
				j++
			}
			view = append(view, proto.ProcessID(j+1))
		}
		e.Seed(view)
		engines[i] = e
	}
	return engines, nil
}

func (r *roundReplay) crashed(i int) bool { return r.crashAt[i] != 0 && r.now >= r.crashAt[i] }

// period runs one gossip period: publishes, every live process's tick,
// then the message hops with one loss decision per message.
func (r *roundReplay) period() {
	r.now++
	op := int64(r.now)
	now := r.now
	for k := 0; k < r.publishes; {
		if i := r.origins.intn(publishers(len(r.engines))); !r.crashed(i) {
			r.engines[i].Publish(nil)
			k++
		}
	}
	queue := r.queue[:0]
	ticks := 0
	r.tr.begin("core.tick", op)
	for i, e := range r.engines {
		if r.crashed(i) {
			continue
		}
		queue = e.TickAppend(now, queue)
		ticks++
	}
	r.tr.end(int64(ticks))
	if r.measuring {
		r.st.procRounds += float64(ticks)
	}
	r.queue = queue
	r.hops(op, now)
}

// hops routes r.queue hop by hop: one loss decision per message, then the
// receivers, whose responses make the next hop.
func (r *roundReplay) hops(op int64, now uint64) {
	queue, next := r.queue, r.next
	for hop := 0; len(queue) > 0 && hop < 16; hop++ {
		surv := r.surv[:0]
		r.tr.begin("fault.classify", op)
		for _, m := range queue {
			if di := int(m.To) - 1; di < 0 || di >= len(r.engines) || r.crashed(di) {
				continue
			}
			if r.loss.Drop(m.From, m.To, r.now) {
				continue
			}
			surv = append(surv, m)
		}
		r.tr.end(int64(len(queue)))
		if r.measuring {
			r.st.sent += uint64(len(queue))
			if hop == 0 && len(r.st.sample) < sampleCap && r.now%4 == 0 {
				r.st.sample = appendSample(r.st.sample, surv, 8)
			}
		}
		next = handleRuns(r.tr, op, surv, next[:0], now, func(to proto.ProcessID) *core.Engine { return r.engines[to-1] })
		r.surv = surv
		queue, next = next, queue
	}
	r.queue, r.next = queue, next
}

// handleRuns feeds msgs to their receivers, one span per run of messages
// of the same kind (a hop is nearly pure: gossips, then the requests they
// caused, then the replies), and returns the responses.
func handleRuns(tr *tracer, op int64, msgs, out []proto.Message, now uint64, engine func(proto.ProcessID) *core.Engine) []proto.Message {
	for start := 0; start < len(msgs); {
		kind := msgs[start].Kind
		end := start
		for end < len(msgs) && msgs[end].Kind == kind {
			end++
		}
		tr.begin(handleSpan[kind], op)
		for _, m := range msgs[start:end] {
			if e := engine(m.To); e != nil {
				out = e.HandleMessageAppend(m, now, out)
			}
		}
		tr.end(int64(end - start))
		start = end
	}
	return out
}

// appendSample deep-copies up to k messages for the leaf probes; the
// engines recycle the originals.
func appendSample(dst, src []proto.Message, k int) []proto.Message {
	for i := 0; i < len(src) && i < k; i++ {
		m := src[i]
		if m.Gossip != nil {
			g := m.Gossip.Clone()
			m.Gossip = &g
		}
		m.Request = append([]proto.EventID(nil), m.Request...)
		reply := make([]proto.Event, len(m.Reply))
		for j, e := range m.Reply {
			reply[j] = e.Clone()
		}
		m.Reply = reply
		m.ReplyHops = append([]uint32(nil), m.ReplyHops...)
		dst = append(dst, m)
	}
	return dst
}

// Timer kinds of the event replay: ticks fire before same-instant arrivals.
const (
	evTick    = 0
	evArrival = 1
)

// eventReplay is the event-clock, unsynchronised replay of sim-event-wan:
// every process ticks at its own phase of the period, every surviving
// message spends its link's delay on the real timer wheel.
type eventReplay struct {
	tr         *tracer
	engines    []*core.Engine
	wheel      *event.Wheel
	loss       fault.LossModel
	topo       fault.Topology
	delay      fault.DelayModel
	delayRNG   *rng.Source
	parts      []fault.Partition
	origins    *gen
	publishes  int
	every      uint64
	payload    []byte
	publishers int // processes that ever publish
	periodMs   uint64
	flight     []proto.Message // in-flight slab, indexed by timer ref
	free       []uint32
	out        []proto.Message
	arrivals   []proto.Message
	due        []uint64
	st         replayStats
	measuring  bool
	nextPub    uint64
	periodsRun int
}

func newEventReplay(o simOptionsView, seed uint64) (*eventReplay, error) {
	root := rng.New(seed)
	n := o.n
	r := &eventReplay{wheel: event.NewWheel(),
		loss: fault.NewTopologyLoss(o.topo, o.epsilon, root.Split()), topo: o.topo,
		delay: o.delay, delayRNG: root.Split(), parts: o.parts,
		origins: newGen(seed, "origins"), publishes: o.publishes, periodMs: o.periodMs,
		every: uint64(o.every), payload: o.payload}
	if r.every == 0 {
		r.every = 1
	}
	r.publishers = o.publishers
	if r.publishers == 0 {
		r.publishers = n
	}
	// No emission reuse here: a WAN message outlives its sender's next
	// tick, so a recycled gossip would be overwritten in flight.
	engines, err := newReplayEngines(o.cfg, n, root, false)
	if err != nil {
		return nil, err
	}
	r.engines = engines
	phaseRNG := root.Split()
	for i := range r.engines {
		r.wheel.Schedule(1+uint64(phaseRNG.Intn(int(r.periodMs))), evTick, uint32(i))
	}
	return r, nil
}

// simOptionsView is the part of a sim workload's options the event replay
// needs, spelled out so the replay cannot reach into the simulator.
type simOptionsView struct {
	publishers int    // processes that ever publish (0: all)
	every      int    // publish every that many periods (0: every period)
	payload    []byte // carried by every published event
	n          int
	cfg        core.Config
	epsilon    float64
	topo       fault.Topology
	delay      fault.DelayModel
	parts      []fault.Partition
	publishes  int
	periodMs   uint64
}

// runUntil advances virtual time to the end of the given period.
func (r *eventReplay) runUntil(period int) {
	end := uint64(period) * r.periodMs
	for {
		r.tr.begin("event.pop", 0)
		t, ok := r.wheel.Next()
		if !ok || t > end {
			r.tr.end(0)
			return
		}
		batch := r.wheel.PopAt(t)
		r.tr.end(int64(len(batch)))
		// Instants in ((p-1)·period, p·period] belong to period p. The
		// engines' clock is the period number, as under the simulator: its
		// event clock moves messages in ms but ticks engines in periods.
		p := (t-1)/r.periodMs + 1
		op := int64(p)
		for r.nextPub < t { // the period's publishes land at its first instant
			for k := 0; k < r.publishes; k++ {
				r.engines[r.origins.intn(r.publishers)].Publish(r.payload)
			}
			r.nextPub += r.periodMs * r.every
		}

		// The batch is ordered ticks first, then arrivals.
		nt := 0
		for nt < len(batch) && batch[nt].Kind == evTick {
			nt++
		}
		out := r.out[:0]
		due := r.due[:0]
		if nt > 0 {
			r.tr.begin("core.tick", op)
			for _, tm := range batch[:nt] {
				out = r.engines[tm.Ref].TickAppend(p, out)
			}
			r.tr.end(int64(nt))
			if r.measuring {
				r.st.procRounds += float64(nt)
			}
		}
		if nt < len(batch) {
			arr := r.arrivals[:0]
			for _, tm := range batch[nt:] {
				arr = append(arr, r.flight[tm.Ref])
				r.flight[tm.Ref] = proto.Message{}
				r.free = append(r.free, tm.Ref)
			}
			out = handleRuns(r.tr, op, arr, out, p, func(to proto.ProcessID) *core.Engine { return r.engines[to-1] })
			r.arrivals = arr
		}

		// One network decision per message: partition, loss, delay draw.
		r.tr.begin("fault.classify", op)
		kept := 0
		for _, m := range out {
			class := r.topo.Class(m.From, m.To)
			if fault.CutLink(r.parts, class, p) {
				continue
			}
			if r.loss.Drop(m.From, m.To, p) {
				continue
			}
			d := r.delay.Delay(m.From, m.To, p, r.delayRNG)
			if d < 1 {
				d = 1
			}
			out[kept] = m
			due = append(due, t+uint64(d))
			kept++
		}
		r.tr.end(int64(len(out)))
		if r.measuring {
			r.st.sent += uint64(len(out))
			if nt > 0 && len(r.st.sample) < sampleCap && p%4 == 0 {
				r.st.sample = appendSample(r.st.sample, out[:kept], 2)
			}
		}

		r.tr.begin("event.schedule", op)
		for i := 0; i < kept; i++ {
			var ref uint32
			if n := len(r.free); n > 0 {
				ref = r.free[n-1]
				r.free = r.free[:n-1]
			} else {
				ref = uint32(len(r.flight))
				r.flight = append(r.flight, proto.Message{})
			}
			r.flight[ref] = out[i]
			r.wheel.Schedule(due[i], evArrival, ref)
		}
		for _, tm := range batch[:nt] {
			r.wheel.Schedule(t+r.periodMs, evTick, tm.Ref)
		}
		r.tr.end(int64(kept + nt))
		if r.measuring {
			r.st.timers += uint64(kept + nt)
		}
		r.out, r.due = out, due
	}
}
