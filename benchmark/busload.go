package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/membership"
	"repro/internal/proto"
	"repro/internal/pubsub"
)

// The bus workload: many small lpbcast groups on one pubsub.Bus with a
// Zipf topic popularity, under steady publish load and membership churn.
const (
	busTopics        = 16
	busSubs          = 2000
	busZipfS         = 1.0
	busEpsilon       = 0.05
	busPerStep       = 4 // publishes and cancel calls per step; every successful cancel is replaced by a join
	busStepsPerSlice = 6
	busStepsPerRefS  = 33 // sizing: steps the reference box runs per second
	busWarmup        = 60
	busDeadline      = 30
	busRatioFloor    = 0.99
	busPeriodMs      = 100
	busLeaveGrace    = 5 // steps a cancelled member keeps gossiping (pubsub's leave grace)
	busMinTopicSize  = 3 // churn never shrinks a topic below this
)

// deployPacer says when the population gossips during deployment: one
// round every time it has grown by busDeployGrowth since it last did. A
// joiner is known to its one contact only, the bus draws contacts from
// everyone on the topic, fresh joiners included, and pubsub has no
// re-subscription timeout (§3.4), so a group that takes joiners much faster
// than it gossips now and then closes twenty to forty members off for good:
// they know each other and nobody else knows them. Deploying without gossip
// (pubsub.Workload.Deploy) does that in about one deployment in ten, gossiping
// two rounds at every doubling or at every growth by 1.3 in one in 300–400;
// at 5 % growth per round none of 4400 deployments had as much as a
// transient island (README). Subscribers arriving over time never see any
// of this; the schedule is the cheapest stand-in for them.
type deployPacer struct{ next int }

const busDeployGrowth = 1.05

func (d *deployPacer) due(deployed int) bool {
	if d.next == 0 {
		d.next = 4
	}
	if deployed < d.next {
		return false
	}
	d.next = int(float64(d.next)*busDeployGrowth) + 1
	return true
}

// busPublishers is how many of a topic's members publish: the first few of
// its active list, for the reason given at publishers, and never more than
// half of them, since publishers are not cancelled.
func busPublishers(members int) int {
	if members > 64 {
		return 32
	}
	return (members + 1) / 2
}

// busSub is the benchmark's record of one subscription.
type busSub struct {
	topic     int
	joined    int // step
	cancelled int // step, -1 while active
	pos       int // index in its topic's active list
	sub       *pubsub.Subscription
	client    *pubsub.Client
}

// busEvent is a published event on its way to its deadline.
type busEvent struct {
	published int
	publisher int32
	eligible  []int32  // subscriptions active on the topic at publish time
	got       []uint64 // bitset over subscription index
}

// busDelivery is what a handler records; it is interpreted after the step.
type busDelivery struct {
	sub int32
	id  proto.EventID
}

type busRun struct {
	n       int // subscriptions deployed at set-up
	bus     *pubsub.Bus
	g       *gen
	zipf    *zipf
	tr      *tracer
	step    int
	subs    []*busSub
	active  [][]int32 // per topic: indices into subs
	nActive int
	leaving []int // ring over steps: members cancelled at step s leave at s+grace
	names   []string

	inbox  []busDelivery
	events map[proto.EventID]*busEvent
	order  []proto.EventID // publish order, for deadline settlement
	hist   latencyHist

	delivered, possible uint64
	ops, failedOps      int
	publishErrs         int
	cancels, refused    int
	subscribeErrs       int
	publishers, victims []int32
	newTopics           []int
	cancelErrs          int
	pubsThisStep        []proto.Event
}

func busConfig(seed uint64) pubsub.Config {
	// Zero Engine: core.DefaultConfig with retransmission, the bus default.
	return pubsub.Config{Seed: seed, Epsilon: busEpsilon}
}

// newBusRun builds the bus and deploys the initial population on
// Zipf-drawn topics, gossiping as deployPacer says. Every topic grows in
// proportion from the first subscription on, so a growth of the population
// is the same growth of each group. This is the workload's set-up.
func newBusRun(p params, seed uint64, tr *tracer) (*busRun, error) {
	n := p.scale(busSubs)
	r := &busRun{n: n, g: newGen(seed, "bus-load"), zipf: newZipf(busTopics, busZipfS), tr: tr,
		active: make([][]int32, busTopics), events: map[proto.EventID]*busEvent{},
		leaving: make([]int, busLeaveGrace+1), names: make([]string, busTopics)}
	for t := range r.names {
		r.names[t] = pubsub.TopicName(t)
	}
	tr.begin("pubsub.build", 0)
	defer tr.end(int64(n))
	bus, err := pubsub.NewBus(busConfig(newGen(seed, "bus-seed").next()))
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", wBus, err)
	}
	r.bus = bus
	var pace deployPacer
	for i := 0; i < n; i++ {
		if err := r.subscribe(r.zipf.draw(r.g)); err != nil {
			return nil, fmt.Errorf("%s: deploy: %w", wBus, err)
		}
		if pace.due(i + 1) {
			bus.Step()
		}
	}
	return r, nil
}

func (r *busRun) subscribe(topic int) error {
	idx := int32(len(r.subs))
	s := &busSub{topic: topic, joined: r.step, cancelled: -1}
	s.client = r.bus.NewClient(fmt.Sprintf("c%d", idx))
	sub, err := s.client.Subscribe(r.names[topic], func(_ string, ev proto.Event) {
		r.inbox = append(r.inbox, busDelivery{sub: idx, id: ev.ID})
	})
	if err != nil {
		return err
	}
	s.sub = sub
	s.pos = len(r.active[topic])
	r.active[topic] = append(r.active[topic], idx)
	r.subs = append(r.subs, s)
	r.nActive++
	return nil
}

// deactivate removes a cancelled subscription from its topic's active list.
func (r *busRun) deactivate(idx int32) {
	s := r.subs[idx]
	list := r.active[s.topic]
	last := list[len(list)-1]
	list[s.pos] = last
	r.subs[last].pos = s.pos
	r.active[s.topic] = list[:len(list)-1]
	s.cancelled = r.step
	r.nActive--
	r.leaving[(r.step+busLeaveGrace)%len(r.leaving)]++
}

// warmBus builds the bus from p.seed and runs the warm-up: the same load
// as the window, untracked. It returns the run and the warm-up's wall time.
// A deployment that split (deployPacer) is not searched around: its events
// miss the island for the rest of the run, and the window's failed
// operations and delivered_ratio say so.
func warmBus(p params, tr *tracer) (*busRun, float64, error) {
	r, err := newBusRun(p, p.seed, tr)
	if err != nil {
		return nil, 0, err
	}
	r.tr = nil
	t0 := time.Now()
	for i := 0; i < busWarmupSteps(p); i++ {
		r.runStep(nil, false)
	}
	r.cancels, r.refused = 0, 0
	r.tr = tr
	return r, time.Since(t0).Seconds(), nil
}

// runStep draws the step's inputs, then — timed by m when not nil —
// publishes, cancels, subscribes and advances the bus one gossip round;
// then, untimed, interprets what the handlers recorded.
func (r *busRun) runStep(m *meter, track bool) {
	r.step++
	op := int64(r.step)
	// Members whose leave grace ran out stopped gossiping.
	slot := r.step % len(r.leaving)
	r.leaving[slot] = 0

	// Draw the inputs first: nothing the generator does is timed.
	r.publishers = r.publishers[:0]
	for len(r.publishers) < busPerStep {
		if list := r.active[r.zipf.draw(r.g)]; len(list) > 0 { // -quick can leave a tail topic empty
			r.publishers = append(r.publishers, list[r.g.intn(busPublishers(len(list)))])
		}
	}
	r.victims = r.victims[:0]
	for len(r.victims) < busPerStep {
		// A uniform pick over active subscriptions, by topic weight.
		k := r.g.intn(r.nActive)
		t := 0
		for k >= len(r.active[t]) {
			k -= len(r.active[t])
			t++
		}
		idx := r.active[t][k]
		// A topic's publishers hold the first positions of its list and are
		// never cancelled, so nobody else ever moves into those positions.
		if k < busPublishers(len(r.active[t])) || len(r.active[t]) <= busMinTopicSize || containsIdx(r.victims, idx) {
			continue
		}
		r.victims = append(r.victims, idx)
	}
	r.newTopics = r.newTopics[:0]
	for i := 0; i < busPerStep; i++ {
		r.newTopics = append(r.newTopics, r.zipf.draw(r.g))
	}
	r.pubsThisStep = r.pubsThisStep[:0]

	if m != nil {
		m.start()
	}
	for _, idx := range r.publishers {
		s := r.subs[idx]
		r.tr.begin("pubsub.publish", op)
		ev, err := s.client.Publish(r.names[s.topic], nil)
		r.tr.end(1)
		if err != nil {
			r.publishErrs++
			continue
		}
		r.pubsThisStep = append(r.pubsThisStep, ev)
	}
	left := 0
	for _, idx := range r.victims {
		r.tr.begin("pubsub.cancel", op)
		err := r.subs[idx].sub.Cancel()
		r.tr.end(1)
		r.cancels++
		switch {
		case err == nil:
			r.deactivate(idx)
			left++
		case errors.Is(err, membership.ErrUnsubRefused):
			r.refused++ // §3.4 back-pressure: the subscription stays live
		default:
			r.cancelErrs++
		}
	}
	// §3.4 lets a member refuse to leave while its unSubs buffer is full;
	// only a cancel that succeeded is replaced, so the population holds.
	for _, t := range r.newTopics[:left] {
		r.tr.begin("pubsub.subscribe", op)
		err := r.subscribe(t)
		r.tr.end(1)
		if err != nil {
			r.subscribeErrs++
		}
	}
	r.tr.begin("pubsub.step", op)
	r.bus.Step()
	r.tr.end(1)
	gossiping := r.nActive
	for _, n := range r.leaving {
		gossiping += n
	}
	if m != nil {
		m.stop(float64(gossiping))
	}

	if !track {
		r.inbox = r.inbox[:0]
		return
	}
	// An event is owed to the subscriptions that were on its topic when it
	// was published and still are at its deadline, so this step's cancels
	// (which followed the publishes) are left out already.
	for i, ev := range r.pubsThisStep {
		pub := r.subs[r.publishers[i]]
		e := &busEvent{published: r.step - 1, publisher: r.publishers[i], got: make([]uint64, (len(r.subs)+63)/64)}
		for _, idx := range r.active[pub.topic] {
			if r.subs[idx].joined < r.step { // this step's joiners came after the publish
				e.eligible = append(e.eligible, idx)
			}
		}
		r.events[ev.ID] = e
		r.order = append(r.order, ev.ID)
	}
	r.observe()
}

func containsIdx(xs []int32, x int32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// observe files the step's deliveries and settles events at their deadline.
func (r *busRun) observe() {
	for _, d := range r.inbox {
		e, ok := r.events[d.id]
		if !ok {
			continue // published in the warm-up, or already settled
		}
		if int(d.sub)>>6 >= len(e.got) || r.subs[d.sub].joined > e.published {
			continue // joined after the publish: not owed this event
		}
		w, bit := d.sub>>6, uint64(1)<<(uint(d.sub)&63)
		if e.got[w]&bit != 0 {
			continue
		}
		e.got[w] |= bit
		if d.sub != e.publisher { // the publisher delivers to itself inside Publish
			r.hist.add(r.step-e.published, 1)
		}
	}
	r.inbox = r.inbox[:0]

	for len(r.order) > 0 {
		id := r.order[0]
		e := r.events[id]
		if r.step-e.published < busDeadline {
			break
		}
		r.order = r.order[1:]
		delete(r.events, id)
		var got, owed int
		for _, idx := range e.eligible {
			if r.subs[idx].cancelled >= 0 {
				continue // left before the deadline: owed nothing
			}
			owed++
			if e.got[idx>>6]&(uint64(1)<<(uint(idx)&63)) != 0 {
				got++
			}
		}
		r.ops++
		r.delivered += uint64(got)
		r.possible += uint64(owed)
		if !reached(got, owed) {
			r.failedOps++
		}
	}
}

// conserved checks the bus ledger per topic and in total.
func (r *busRun) conserved(res *result) {
	for _, name := range r.names {
		if err := r.bus.NetStats(name).Conserved(); err != nil {
			res.fail("topic %s: %v", name, err)
		}
	}
	if err := r.bus.TotalNetStats().Conserved(); err != nil {
		res.fail("bus total: %v", err)
	}
}

func busWindowSlices(p params) int {
	slices := int(p.seconds*busStepsPerRefS/busStepsPerSlice + 0.5)
	if p.quick {
		slices /= 10
	}
	if slices < p.minSlices() {
		slices = p.minSlices()
	}
	return slices
}

func busWarmupSteps(p params) int {
	if p.quick {
		return busDeadline
	}
	return busWarmup
}

func runBus(p params) *result {
	res := newResult(wBus)
	cal := newCalibrator(1)

	setup := newSetupTimer(cal, 1, func() func() {
		if _, err := newBusRun(p, p.seed, nil); err != nil {
			res.fail("%v", err)
		}
		return func() {}
	})
	setup.take(p.setupBuilds() / 2)
	if !res.correct() {
		return res
	}

	heapBase := heapAfterGC()
	r, warmupS, err := warmBus(p, nil)
	if err != nil {
		res.fail("%v", err)
		return res
	}

	slices := busWindowSlices(p)
	m := newMeter(cal)
	var heaps []float64
	for s := 0; s < slices; s++ {
		m.beginSlice()
		for i := 0; i < busStepsPerSlice; i++ {
			r.runStep(m, true)
		}
		m.endSlice()
		if s%heapEvery == heapEvery-1 {
			heaps = append(heaps, float64(heapAfterGC()))
		}
	}

	w := summarize(m.slices, cal.refS(), true)
	fillMeasured(res, w, cal, warmupS, (mean(heaps)-float64(heapBase))/float64(r.nActive))
	r.fillDelivery(res)
	res.note("window: %d slices × %d steps, %d subscriptions on %d topics, %d cancels (%d refused), slice wall p50 %.0f ms",
		slices, busStepsPerSlice, r.nActive, busTopics, r.cancels, r.refused, w.sliceWallP50S*1e3)
	r.conserved(res)
	r = nil // the bus has no Close: unreferenced, it is collected before the builds that follow
	setup.finish(p, res)
	return res
}

func (r *busRun) fillDelivery(res *result) {
	errs := r.publishErrs + r.subscribeErrs + r.cancelErrs
	res.ops, res.failedOps = r.ops, r.failedOps+r.publishErrs
	dr := ratio(float64(r.delivered), float64(r.possible))
	res.metrics["delivered_ratio"] = dr
	if dr < busRatioFloor {
		res.fail("delivered_ratio %.5f below the workload's floor %.3f", dr, busRatioFloor)
	}
	if errs > 0 {
		res.fail("%d publish, %d subscribe and %d cancel calls returned an unexpected error",
			r.publishErrs, r.subscribeErrs, r.cancelErrs)
	}
	fillLatency(res, &r.hist, busPeriodMs)
}
