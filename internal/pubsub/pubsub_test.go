package pubsub

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/membership"
	"repro/internal/netmodel"
	"repro/internal/proto"
)

// newTestBus builds a Bus or fails the test.
func newTestBus(t testing.TB, cfg Config) *Bus {
	t.Helper()
	b, err := NewBus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertBusConserved checks the conservation invariant on every topic's
// counters and on their merge.
func assertBusConserved(t *testing.T, b *Bus) {
	t.Helper()
	for _, topic := range b.Topics() {
		if err := b.NetStats(topic).Conserved(); err != nil {
			t.Errorf("topic %q: %v", topic, err)
		}
	}
	if err := b.TotalNetStats().Conserved(); err != nil {
		t.Errorf("total: %v", err)
	}
}

// collector counts deliveries per topic, safely.
type collector struct {
	mu     sync.Mutex
	byID   map[proto.EventID]int
	topics map[string]int
}

func newCollector() *collector {
	return &collector{byID: map[proto.EventID]int{}, topics: map[string]int{}}
}

func (c *collector) handler() Handler {
	return func(topic string, ev proto.Event) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.byID[ev.ID]++
		c.topics[topic]++
	}
}

func (c *collector) count(id proto.EventID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byID[id]
}

func (c *collector) topicCount(topic string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.topics[topic]
}

func TestNewBusValidates(t *testing.T) {
	t.Parallel()
	cases := map[string]Config{
		"epsilon": {Epsilon: 1.5},
		"delay":   {Delay: fault.FixedDelay{Rounds: -2}},
		"ring":    {Delay: fault.FixedDelay{Rounds: netmodel.MaxDelayRounds + 1}},
		"partition overlap": {Partitions: []fault.Partition{
			{From: 1, To: 5}, {From: 3, To: 7},
		}},
		// The Bus steps whole rounds: a millisecond model would wait its
		// milliseconds out as rounds.
		"millis": {Delay: fault.Millis{Model: fault.FixedDelay{Rounds: 30}}},
		"millis topology": {Delay: fault.Millis{Model: fault.TopologyDelay{T: fault.TwoCluster{
			Split: 2, WAN: fault.LinkProfile{Epsilon: -1, MinDelay: 10, MaxDelay: 40},
		}}}},
	}
	for name, cfg := range cases {
		if _, err := NewBus(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestSubscribeValidation(t *testing.T) {
	t.Parallel()
	b := newTestBus(t, Config{Seed: 1})
	alice := b.NewClient("alice")
	if _, err := alice.Subscribe("", nil); err == nil {
		t.Error("empty topic accepted")
	}
	if _, err := alice.Subscribe("news", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Subscribe("news", nil); err == nil {
		t.Error("duplicate subscription accepted")
	}
}

func TestPublishRequiresSubscription(t *testing.T) {
	t.Parallel()
	b := newTestBus(t, Config{Seed: 1})
	alice := b.NewClient("alice")
	if _, err := alice.Publish("news", []byte("x")); err == nil {
		t.Error("publish without subscription accepted")
	}
}

func TestTopicBroadcast(t *testing.T) {
	t.Parallel()
	b := newTestBus(t, Config{Seed: 2})
	col := newCollector()
	const subscribers = 12
	var pub *Client
	for i := 0; i < subscribers; i++ {
		cl := b.NewClient(string(rune('a' + i)))
		if _, err := cl.Subscribe("market", col.handler()); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			pub = cl
		}
	}
	b.StepN(5) // let membership mix
	ev, err := pub.Publish("market", []byte("tick"))
	if err != nil {
		t.Fatal(err)
	}
	b.StepN(10)
	if got := col.count(ev.ID); got != subscribers {
		t.Fatalf("delivered to %d of %d subscribers", got, subscribers)
	}
	s := b.NetStats("market")
	if s.Sent == 0 || s.Delivered == 0 {
		t.Errorf("topic stats not accounted: %+v", s)
	}
	assertBusConserved(t, b)
}

func TestTopicsAreIsolated(t *testing.T) {
	t.Parallel()
	b := newTestBus(t, Config{Seed: 3})
	colA, colB := newCollector(), newCollector()
	pa := b.NewClient("pa")
	pb := b.NewClient("pb")
	if _, err := pa.Subscribe("alpha", colA.handler()); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Subscribe("beta", colB.handler()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		other := b.NewClient(string(rune('x' + i)))
		if _, err := other.Subscribe("alpha", colA.handler()); err != nil {
			t.Fatal(err)
		}
	}
	b.StepN(4)
	if _, err := pa.Publish("alpha", []byte("a")); err != nil {
		t.Fatal(err)
	}
	b.StepN(8)
	if colB.topicCount("beta") != 0 {
		t.Error("beta subscriber received alpha traffic")
	}
	if colA.topicCount("alpha") == 0 {
		t.Error("alpha traffic not delivered")
	}
	if got := b.Topics(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Errorf("Topics = %v", got)
	}
	// Per-topic accounting is isolated too: beta is a single silent
	// member, so all traffic belongs to alpha.
	if s := b.NetStats("beta"); s.Sent != 0 {
		t.Errorf("beta accounted alpha's traffic: %+v", s)
	}
	assertBusConserved(t, b)
}

func TestLateJoinerCatchesNewTraffic(t *testing.T) {
	t.Parallel()
	b := newTestBus(t, Config{Seed: 4})
	col := newCollector()
	first := b.NewClient("first")
	if _, err := first.Subscribe("chat", col.handler()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		cl := b.NewClient(string(rune('p' + i)))
		if _, err := cl.Subscribe("chat", col.handler()); err != nil {
			t.Fatal(err)
		}
	}
	b.StepN(5)
	late := b.NewClient("late")
	lateCol := newCollector()
	if _, err := late.Subscribe("chat", lateCol.handler()); err != nil {
		t.Fatal(err)
	}
	b.StepN(5) // the join spreads
	ev, err := first.Publish("chat", []byte("hello late"))
	if err != nil {
		t.Fatal(err)
	}
	b.StepN(10)
	if lateCol.count(ev.ID) != 1 {
		t.Error("late joiner missed a post-join publication")
	}
}

func TestCancelStopsDeliveryAndShrinksTopic(t *testing.T) {
	t.Parallel()
	b := newTestBus(t, Config{Seed: 5})
	col := newCollector()
	leaverCol := newCollector()
	var clients []*Client
	var leaverSub *Subscription
	for i := 0; i < 8; i++ {
		cl := b.NewClient(string(rune('a' + i)))
		h := col.handler()
		if i == 7 {
			h = leaverCol.handler()
		}
		sub, err := cl.Subscribe("room", h)
		if err != nil {
			t.Fatal(err)
		}
		if i == 7 {
			leaverSub = sub
		}
		clients = append(clients, cl)
	}
	b.StepN(5)
	if b.TopicSize("room") != 8 {
		t.Fatalf("topic size = %d", b.TopicSize("room"))
	}
	if err := leaverSub.Cancel(); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if b.TopicSize("room") != 7 {
		t.Fatalf("topic size after cancel = %d", b.TopicSize("room"))
	}
	b.StepN(leaveGraceRounds + 2) // member fully removed
	ev, err := clients[0].Publish("room", []byte("after leave"))
	if err != nil {
		t.Fatal(err)
	}
	b.StepN(10)
	if leaverCol.count(ev.ID) != 0 {
		t.Error("cancelled subscriber still received traffic")
	}
	if col.count(ev.ID) != 7 {
		t.Errorf("remaining members got %d of 7 deliveries", col.count(ev.ID))
	}
	// Views keep naming the departed member for a while; its traffic is
	// accounted as unknown-destination, not lost from the books.
	assertBusConserved(t, b)
	// Cancel is idempotent.
	if err := leaverSub.Cancel(); err != nil {
		t.Errorf("second Cancel: %v", err)
	}
	// Publishing on a cancelled subscription fails.
	if _, err := clients[7].Publish("room", nil); err == nil {
		t.Error("publish after cancel accepted")
	}
}

func TestCancelRefusedWhenUnsubBufferFull(t *testing.T) {
	t.Parallel()
	cfg := core.DefaultConfig()
	cfg.Membership.UnsubRefusalLen = 1
	cfg.Membership.UnsubTTL = 1 << 60 // never expire during the test
	b := newTestBus(t, Config{Seed: 6, Engine: cfg})
	var subs []*Subscription
	for i := 0; i < 6; i++ {
		cl := b.NewClient(string(rune('a' + i)))
		sub, err := cl.Subscribe("t", nil)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	b.StepN(4)
	// First leaver fills everyone's unSubs buffers.
	if err := subs[0].Cancel(); err != nil {
		t.Fatalf("first cancel: %v", err)
	}
	b.StepN(2)
	// A member whose buffer holds the first unsubscription refuses its own.
	var refused bool
	for _, s := range subs[1:] {
		if err := s.Cancel(); errors.Is(err, membership.ErrUnsubRefused) {
			refused = true
			break
		}
	}
	if !refused {
		t.Skip("no member had a full unSubs buffer; refusal path covered in membership tests")
	}
}

func TestBusWithLossStillDelivers(t *testing.T) {
	t.Parallel()
	b := newTestBus(t, Config{Seed: 7, Epsilon: 0.1})
	col := newCollector()
	var pub *Client
	for i := 0; i < 10; i++ {
		cl := b.NewClient(string(rune('a' + i)))
		if _, err := cl.Subscribe("lossy", col.handler()); err != nil {
			t.Fatal(err)
		}
		if pub == nil {
			pub = cl
		}
	}
	b.StepN(5)
	ev, err := pub.Publish("lossy", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	b.StepN(15)
	if got := col.count(ev.ID); got < 9 {
		t.Errorf("delivered to %d of 10 under 10%% loss (retransmission on)", got)
	}
	s := b.NetStats("lossy")
	if s.Dropped == 0 {
		t.Errorf("ε=0.1 dropped nothing: %+v", s)
	}
	assertBusConserved(t, b)
}

func TestNowAdvances(t *testing.T) {
	t.Parallel()
	b := newTestBus(t, Config{Seed: 8})
	if b.Now() != 0 {
		t.Fatal("fresh bus not at round 0")
	}
	b.StepN(3)
	if b.Now() != 3 {
		t.Fatalf("Now = %d", b.Now())
	}
}

func TestManyTopicsStayIsolatedAndCheap(t *testing.T) {
	t.Parallel()
	// The paper defers "the effect of scaling up topics" (§3.1); this
	// exercises it: 12 topics × 8 subscribers, traffic on all topics,
	// no cross-talk.
	b := newTestBus(t, Config{Seed: 99})
	const topics, subsPer = 12, 8
	cols := make([]*collector, topics)
	pubs := make([]*Client, topics)
	for ti := 0; ti < topics; ti++ {
		cols[ti] = newCollector()
		topic := string(rune('A' + ti))
		for s := 0; s < subsPer; s++ {
			cl := b.NewClient(topic + string(rune('a'+s)))
			if _, err := cl.Subscribe(topic, cols[ti].handler()); err != nil {
				t.Fatal(err)
			}
			if s == 0 {
				pubs[ti] = cl
			}
		}
	}
	b.StepN(5)
	events := make([]proto.EventID, topics)
	for ti := 0; ti < topics; ti++ {
		ev, err := pubs[ti].Publish(string(rune('A'+ti)), []byte{byte(ti)})
		if err != nil {
			t.Fatal(err)
		}
		events[ti] = ev.ID
	}
	b.StepN(10)
	for ti := 0; ti < topics; ti++ {
		if got := cols[ti].count(events[ti]); got != subsPer {
			t.Errorf("topic %d delivered to %d of %d", ti, got, subsPer)
		}
		// No deliveries from other topics.
		topic := string(rune('A' + ti))
		for tj := 0; tj < topics; tj++ {
			if tj != ti && cols[ti].topicCount(string(rune('A'+tj))) > 0 {
				t.Errorf("topic %s leaked into %s's subscribers", string(rune('A'+tj)), topic)
			}
		}
	}
	if got := len(b.Topics()); got != topics {
		t.Errorf("bus lists %d topics, want %d", got, topics)
	}
	assertBusConserved(t, b)
}

// TestJoinRollbackOnJoinViaFailure is the regression test for the
// half-registered-member leak: when JoinVia rejects the chosen contact,
// the failed subscriber used to stay in the member table and the topic
// list, gossiping forever and inflating TopicSize. The test plants a
// ghost topic member under the pid the joiner itself will be assigned,
// so the bootstrap contact draw returns the joiner's own pid — the one
// contact JoinVia always refuses — and the join fails deterministically.
// The test then asserts that nothing of the joiner was registered.
func TestJoinRollbackOnJoinViaFailure(t *testing.T) {
	t.Parallel()
	b := newTestBus(t, Config{Seed: 10})
	ts := &topicState{name: "t"}
	b.topics["t"] = ts
	ghost := &member{pid: b.nextPID, topic: ts}
	ts.members = append(ts.members, ghost)

	pidBefore := b.nextPID
	cl := b.NewClient("joiner")
	if _, err := cl.Subscribe("t", nil); err == nil {
		t.Fatal("Subscribe via an invalid contact succeeded")
	}
	if got := b.nextPID; got != pidBefore {
		t.Errorf("nextPID = %d after failed join, want %d", got, pidBefore)
	}
	if len(ts.members) != 1 {
		t.Errorf("failed joiner still in topic list: %d members", len(ts.members))
	}
	// Clear the planted ghost before exercising the bus again: its pid is
	// exactly the one the next real subscription will receive.
	ts.members = ts.members[:0]
	// The client's sub map must not hold the failed subscription either:
	// a retry must not hit the duplicate-subscription error.
	if _, err := cl.Subscribe("other", nil); err != nil {
		t.Errorf("client unusable after failed join: %v", err)
	}
	b.StepN(2)
	// A failed joiner in the cluster would gossip on topic t.
	if s := b.NetStats("t"); s.Sent != 0 {
		t.Errorf("failed joiner gossips: %+v", s)
	}
	assertBusConserved(t, b)
}

// TestHandlerMayReenterBus is the regression test for the self-deadlock:
// handlers used to run inside Step's critical section, so a handler that
// published (or subscribed, or cancelled) hung on Bus.mu forever. Now
// handlers run from a drained queue with no locks held: a handler that
// re-publishes on delivery must complete, and its follow-up event must
// disseminate like any other.
func TestHandlerMayReenterBus(t *testing.T) {
	t.Parallel()
	b := newTestBus(t, Config{Seed: 11})
	col := newCollector()
	const subscribers = 8

	var reactor *Client
	var once sync.Once
	var followUp proto.EventID
	var followMu sync.Mutex
	reactHandler := func(topic string, ev proto.Event) {
		col.handler()(topic, ev)
		once.Do(func() {
			// Reentrant publish from inside a delivery.
			fev, err := reactor.Publish("chain", []byte("follow-up"))
			if err != nil {
				t.Errorf("reentrant publish: %v", err)
				return
			}
			followMu.Lock()
			followUp = fev.ID
			followMu.Unlock()
		})
	}

	var pub *Client
	for i := 0; i < subscribers; i++ {
		cl := b.NewClient(string(rune('a' + i)))
		h := col.handler()
		if i == subscribers-1 {
			reactor = cl
			h = reactHandler
		}
		if _, err := cl.Subscribe("chain", h); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			pub = cl
		}
	}
	b.StepN(5)

	// Watchdog: before the fix this deadlocked; fail fast instead of
	// hanging the whole test binary.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := pub.Publish("chain", []byte("trigger")); err != nil {
			t.Errorf("publish: %v", err)
			return
		}
		b.StepN(12)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("bus deadlocked: handler reentered the Bus during delivery")
	}

	followMu.Lock()
	id := followUp
	followMu.Unlock()
	if id == (proto.EventID{}) {
		t.Fatal("reentrant publish never ran")
	}
	if got := col.count(id); got != subscribers {
		t.Errorf("follow-up event delivered to %d of %d", got, subscribers)
	}
	assertBusConserved(t, b)
}

// TestCancelSubscribeRaceAtomic is the race-hammer regression test for
// the Cancel rollback clobber: a refused Cancel used to re-insert its
// subscription into the client's map without checking whether a
// concurrent Subscribe had won the race in the unlocked window, silently
// replacing the new subscription and stranding its member. Cancel is now
// atomic under the client lock: while a live subscription exists, a
// concurrent Subscribe to the same topic can only report "already
// subscribed", never get clobbered. Run under -race.
func TestCancelSubscribeRaceAtomic(t *testing.T) {
	t.Parallel()
	engCfg := core.DefaultConfig()
	engCfg.Membership.UnsubRefusalLen = 1
	engCfg.Membership.UnsubTTL = 1 << 60
	for i := 0; i < 100; i++ {
		b := newTestBus(t, Config{Seed: uint64(100 + i), Engine: engCfg})
		filler := b.NewClient("filler")
		fillerSub, err := filler.Subscribe("t", nil)
		if err != nil {
			t.Fatal(err)
		}
		c := b.NewClient("c")
		s, err := c.Subscribe("t", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.NewClient("w").Subscribe("t", nil); err != nil {
			t.Fatal(err)
		}
		b.StepN(4)
		// The filler's departure fills the other members' unSubs buffers
		// (UnsubRefusalLen=1), so s.Cancel below is refused.
		if err := fillerSub.Cancel(); err != nil {
			t.Fatal(err)
		}
		b.StepN(3)

		var subsWon []*Subscription
		var cancelErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			cancelErr = s.Cancel()
		}()
		for {
			if s2, err := c.Subscribe("t", nil); err == nil {
				subsWon = append(subsWon, s2)
			}
			select {
			case <-done:
			default:
				continue
			}
			break
		}

		if errors.Is(cancelErr, membership.ErrUnsubRefused) {
			// The cancel was refused, so s stayed live the whole time: no
			// concurrent Subscribe may have succeeded, and the client map
			// must still hold s.
			if len(subsWon) != 0 {
				t.Fatalf("iter %d: refused Cancel raced a successful Subscribe: %d won", i, len(subsWon))
			}
			c.mu.Lock()
			cur := c.subs["t"]
			c.mu.Unlock()
			if cur != s {
				t.Fatalf("iter %d: refused Cancel clobbered the client's subscription", i)
			}
			if _, err := c.Publish("t", nil); err != nil {
				t.Fatalf("iter %d: subscription dead after refused Cancel: %v", i, err)
			}
		} else if cancelErr == nil && len(subsWon) > 0 {
			// The cancel succeeded and a Subscribe won afterwards: the
			// winner must be the live subscription.
			c.mu.Lock()
			cur := c.subs["t"]
			c.mu.Unlock()
			if cur != subsWon[len(subsWon)-1] {
				t.Fatalf("iter %d: winning Subscribe not in the client map", i)
			}
		}
	}
}

// TestTruncatedChaseSurfaced: a late joiner's retransmit requests
// (triggered by digests of events it missed) and the replies they draw
// drain within the executor's chase cap, so nothing is truncated, and the
// books balance. That a chase cut at the cap is counted, in each sender's
// own ledger, is internal/sim's TestTruncatedChaseLedgers.
func TestTruncatedChaseSurfaced(t *testing.T) {
	t.Parallel()
	b := newTestBus(t, Config{Seed: 12})
	var pub *Client
	for i := 0; i < 8; i++ {
		cl := b.NewClient(string(rune('a' + i)))
		if _, err := cl.Subscribe("deep", nil); err != nil {
			t.Fatal(err)
		}
		if pub == nil {
			pub = cl
		}
	}
	b.StepN(5)
	if _, err := pub.Publish("deep", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	b.StepN(3)
	// A late joiner misses the event; digests make it beg for
	// retransmissions every round.
	if _, err := b.NewClient("late").Subscribe("deep", nil); err != nil {
		t.Fatal(err)
	}
	b.StepN(6)
	s := b.NetStats("deep")
	if s.TruncatedChase != 0 {
		t.Errorf("the chase cap truncated %d responses: %+v", s.TruncatedChase, s)
	}
	if s.Delivered == 0 {
		t.Errorf("nothing delivered: %+v", s)
	}
	assertBusConserved(t, b)
}

// busScenario runs a fixed multi-topic script under loss + per-link
// delay + a partition window and returns the delivery tape: one line per
// handler invocation, in invocation order.
func busScenario(t *testing.T, seed uint64) ([]string, *Bus) {
	t.Helper()
	topo := fault.TwoCluster{
		Split: 8, // pids are assigned in subscription order from 1
		Local: fault.LinkProfile{Epsilon: -1},
		WAN:   fault.LinkProfile{Epsilon: -1, MinDelay: 1, MaxDelay: 2},
	}
	b := newTestBus(t, Config{
		Seed:     seed,
		Epsilon:  0.05,
		Topology: topo,
		Partitions: []fault.Partition{
			{From: 12, To: 16, Classes: []fault.LinkClass{fault.LinkWAN}},
		},
	})
	var tape []string
	handler := func(name string) Handler {
		return func(topic string, ev proto.Event) {
			tape = append(tape, fmt.Sprintf("r%d %s %s %v", b.Now(), name, topic, ev.ID))
		}
	}
	clients := map[string]*Client{}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("c%02d", i)
		cl := b.NewClient(name)
		clients[name] = cl
		topic := "even"
		if i%2 == 1 {
			topic = "odd"
		}
		if _, err := cl.Subscribe(topic, handler(name)); err != nil {
			t.Fatal(err)
		}
	}
	b.StepN(5)
	for r := 0; r < 20; r++ {
		if r%4 == 0 {
			if _, err := clients["c00"].Publish("even", []byte{byte(r)}); err != nil {
				t.Fatal(err)
			}
		}
		if r%5 == 0 {
			if _, err := clients["c01"].Publish("odd", []byte{byte(r)}); err != nil {
				t.Fatal(err)
			}
		}
		b.Step()
	}
	return tape, b
}

// TestBusDeterministicTape: same seed ⇒ bit-identical delivery tapes,
// including under loss, per-link delays, and a scheduled partition
// window — the pubsub analogue of the executor equivalence tests.
func TestBusDeterministicTape(t *testing.T) {
	t.Parallel()
	tape1, b1 := busScenario(t, 42)
	tape2, _ := busScenario(t, 42)
	if len(tape1) == 0 {
		t.Fatal("scenario delivered nothing")
	}
	if len(tape1) != len(tape2) {
		t.Fatalf("tapes differ in length: %d vs %d", len(tape1), len(tape2))
	}
	for i := range tape1 {
		if tape1[i] != tape2[i] {
			t.Fatalf("tapes diverge at %d: %q vs %q", i, tape1[i], tape2[i])
		}
	}
	// A different seed must not replay the same tape (the scenario is
	// genuinely stochastic).
	tape3, _ := busScenario(t, 43)
	same := len(tape3) == len(tape1)
	if same {
		for i := range tape1 {
			if tape1[i] != tape3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical tapes")
	}
	// The fault machinery all fired, and the books balance per topic.
	total := b1.TotalNetStats()
	if total.Dropped == 0 {
		t.Errorf("ε=0.05 dropped nothing: %+v", total)
	}
	if total.DeliveredLate == 0 {
		t.Errorf("WAN delays produced no late deliveries: %+v", total)
	}
	if total.DroppedInPartition == 0 {
		t.Errorf("partition window cut nothing: %+v", total)
	}
	assertBusConserved(t, b1)
}

// TestBusScenarioFingerprint pins busScenario's delivery tape and its merged
// network counters across versions, not just across two runs of one build:
// it is the referee for the bus's delayed path — loss, per-link delays and a
// partition window — and for the order in which they draw. A change that
// moves a loss or delay draw, or settles an arrival into another counter,
// changes the digest. Each round's deliveries are hashed sorted: the
// handling-order contract (docs/ARCHITECTURE.md) leaves the order across
// members within a round unspecified.
func TestBusScenarioFingerprint(t *testing.T) {
	t.Parallel()
	tape, b := busScenario(t, 42)
	h := sha256.New()
	for _, line := range sortedRounds(tape) {
		fmt.Fprintln(h, line)
	}
	fmt.Fprintf(h, "%+v\n", b.TotalNetStats())
	const want = "0b7a29e0a86480401820eb9cd9d2971433bcfb68e935b575fc7ebe476be6c65e"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("busScenario(42) fingerprint %s, want %s (%d deliveries, %+v)", got, want, len(tape), b.TotalNetStats())
	}
}

// sortedRounds sorts each round's lines of a busScenario tape, which runs
// in round order, and leaves the rounds in order.
func sortedRounds(tape []string) []string {
	out := slices.Clone(tape)
	round := func(line string) string { return line[:strings.IndexByte(line, ' ')] }
	for lo := 0; lo < len(out); {
		hi := lo + 1
		for hi < len(out) && round(out[hi]) == round(out[lo]) {
			hi++
		}
		slices.Sort(out[lo:hi])
		lo = hi
	}
	return out
}

// TestBusStepAllocs gates the steady-state routing path: a warmed
// multi-topic bus must run a whole round in at most 2 allocations —
// the same budget as the simulator's steady rounds — with its traffic
// delivered in the round it is sent, and with half of it crossing a WAN
// whose 1-2 round delays park it in the in-flight ring.
func TestBusStepAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs unthrottled runtime")
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"same-round", Config{Seed: 1}},
		{"delay=wan", Config{Seed: 1, Topology: fault.TwoCluster{
			Split: 32, // members subscribe round-robin, so every topic spans the split
			Local: fault.LinkProfile{Epsilon: -1},
			WAN:   fault.LinkProfile{Epsilon: -1, MinDelay: 1, MaxDelay: 2},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bus := newTestBus(t, tc.cfg)
			for s := 0; s < 8; s++ {
				for ti := 0; ti < 8; ti++ {
					topic := string(rune('A' + ti))
					cl := bus.NewClient(topic + string(rune('a'+s)))
					if _, err := cl.Subscribe(topic, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			bus.StepN(30) // warm the retained buffers, the ring's pools and engine scratch
			allocs := testing.AllocsPerRun(50, bus.Step)
			t.Logf("%v allocations per Step", allocs)
			if allocs > 2 {
				t.Errorf("steady Step allocates %v times per round, want <= 2", allocs)
			}
			if s := bus.TotalNetStats(); tc.cfg.Topology != nil && s.DeliveredLate == 0 {
				t.Errorf("the WAN delayed nothing: %+v", s)
			}
			assertBusConserved(t, bus)
		})
	}
}

// TestBusDelayedDeliverySettles: messages parked in the delay ring settle
// into Delivered(+Late) and the payloads survive the engines' emission
// reuse (the cluster's arena keeps one generation per step a message can
// be in flight).
func TestBusDelayedDeliverySettles(t *testing.T) {
	t.Parallel()
	b := newTestBus(t, Config{Seed: 13, Delay: fault.FixedDelay{Rounds: 2}})
	col := newCollector()
	var pub *Client
	for i := 0; i < 8; i++ {
		cl := b.NewClient(string(rune('a' + i)))
		if _, err := cl.Subscribe("slow", col.handler()); err != nil {
			t.Fatal(err)
		}
		if pub == nil {
			pub = cl
		}
	}
	b.StepN(6)
	ev, err := pub.Publish("slow", []byte("delayed"))
	if err != nil {
		t.Fatal(err)
	}
	b.StepN(14)
	if got := col.count(ev.ID); got != 8 {
		t.Errorf("delivered to %d of 8 with a 2-round delay", got)
	}
	s := b.NetStats("slow")
	if s.DeliveredLate == 0 {
		t.Errorf("fixed 2-round delay produced no late deliveries: %+v", s)
	}
	if s.DeliveredLate != s.Delivered {
		t.Errorf("every delivery is 2 rounds late, got %d late of %d", s.DeliveredLate, s.Delivered)
	}
	assertBusConserved(t, b)
}

// TestBusDelayedArrivalToDepartedMember: a message still in the air when
// its destination completes its leave settles as an unknown destination on
// arrival — the Bus has no crashed members, so ToCrashed stays zero — and
// the books balance.
func TestBusDelayedArrivalToDepartedMember(t *testing.T) {
	t.Parallel()
	b := newTestBus(t, Config{Seed: 14, Delay: fault.FixedDelay{Rounds: 2}})
	var subs []*Subscription
	for i := 0; i < 6; i++ {
		sub, err := b.NewClient(string(rune('a'+i))).Subscribe("t", nil)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	b.StepN(6)
	if err := subs[5].Cancel(); err != nil {
		t.Fatal(err)
	}
	b.StepN(leaveGraceRounds + 4)
	s := b.NetStats("t")
	if s.UnknownDest == 0 || s.ToCrashed != 0 {
		t.Errorf("traffic to the departed member: %+v", s)
	}
	assertBusConserved(t, b)
}

func BenchmarkBusStepManyTopics(b *testing.B) {
	bus, err := NewBus(Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for ti := 0; ti < 10; ti++ {
		topic := string(rune('A' + ti))
		for s := 0; s < 10; s++ {
			cl := bus.NewClient(topic + string(rune('a'+s)))
			if _, err := cl.Subscribe(topic, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	bus.StepN(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Step()
	}
}
