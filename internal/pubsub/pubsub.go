// Package pubsub implements the application layer the paper built lpbcast
// for (§1, §3.1, ref [8]): topic-based publish/subscribe. Each topic is an
// independent lpbcast group Π — subscribing to a topic is joining its
// group, unsubscribing is leaving it, and publishing disseminates a
// notification through the topic's gossip.
//
// The Bus runs on the runtime-v2 seams the simulator executors use: every
// member engine emits through the zero-alloc append paths into one emission
// arena the bus resets after each step, all topics share one batched
// routing loop, and the network between members is the simulator's one
// network model (internal/netmodel):
// the same filter, the same in-flight ring, the same rules, on the round
// clock. Each topic accounts its traffic in a stats.NetStats ledger that
// satisfies the same conservation invariant as the simulator's, including
// TruncatedChase for responses cut off by the chase cap.
//
// The package is deliberately deterministic: a Bus advances in explicit
// gossip rounds (Step), which makes the dynamic-membership behaviour easy
// to test and to demonstrate. Wiring the same engines to live transports
// instead is exactly what the root lpbcast package does.
package pubsub

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/idmap"
	"repro/internal/membership"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Handler receives notifications delivered on a topic. Handlers run with
// no Bus locks held, so they may call Publish, Subscribe, or Cancel —
// including on the client that is being delivered to.
type Handler func(topic string, ev proto.Event)

// defaultMaxChase bounds the same-round response cascade (retransmit
// requests triggering replies triggering requests, ...) as a safety valve
// against protocol bugs; well-behaved engines drain in one or two hops.
// Matches the simulator's maxChase.
const defaultMaxChase = 16

// Config shapes a Bus.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Epsilon, Delay, Topology and Partitions are the network between
	// members, with netmodel.Config's semantics and rules on the round
	// clock: delays count whole rounds, and a millisecond delay model is
	// refused. Member pids are assigned in subscription order starting at
	// 1, so e.g. a TwoCluster split partitions early subscribers from late
	// ones.
	Epsilon    float64
	Delay      fault.DelayModel
	Topology   fault.Topology
	Partitions []fault.Partition
	// MaxChase overrides the same-round response chase cap (0 = the
	// default 16). Responses still queued when the cap hits are counted
	// in the topic's NetStats.TruncatedChase.
	MaxChase int
	// Engine is the per-member lpbcast configuration. Zero value means
	// core.DefaultConfig with retransmission enabled (so payloads survive
	// loss).
	Engine core.Config
	// Tracer, when set, observes membership and delivery events: KindJoinSent
	// when a subscription registers, KindLeave when a member is removed, and
	// KindDeliver for each notification a non-leaving member delivers
	// (Node = member pid, EventID = notification, N = current step). The bus
	// invokes it under its own lock, always from a single goroutine, so a
	// plain (non-synchronized) implementation is acceptable here even though
	// the simulator seam requires concurrency safety.
	Tracer trace.Tracer
}

// network is the configuration's network model.
func (cfg Config) network() netmodel.Config {
	return netmodel.Config{Epsilon: cfg.Epsilon, Topology: cfg.Topology, Delay: cfg.Delay, Partitions: cfg.Partitions}
}

// topicState is one topic group: its member list and its network
// accounting. The state outlives its members — a fully-unsubscribed
// topic keeps its NetStats — so counters never reset behind a caller's
// back; Topics only lists topics with at least one member.
type topicState struct {
	name string
	pids []proto.ProcessID
	net  stats.NetStats
}

// Bus hosts topic groups and routes gossip between their members.
//
// Bus is safe for concurrent use; Step serializes protocol activity.
type Bus struct {
	mu       sync.Mutex
	cfg      Config
	root     *rng.Source
	network  *netmodel.Model
	maxChase int
	now      uint64
	nextPID  proto.ProcessID
	// index maps live pids onto dense slots in members. Pids are assigned
	// monotonically forever, but leaves release their slots for reuse, so
	// under churn the member table stays bounded by the peak concurrent
	// membership instead of growing with every subscription ever made.
	index   idmap.Table
	members []*member // members[ix] for live index ix, nil otherwise
	// order holds the registered pids in ascending order (pids are
	// assigned monotonically, so append and targeted removal keep it
	// sorted); Step ticks members in this deterministic order without
	// sorting or allocating.
	order  []proto.ProcessID
	topics map[string]*topicState
	// queue/next and their parallel tally slices are the retained hop
	// buffers of the batched dispatch loop: tally[i] is the ledger — its
	// topic's NetStats — that accounts queue[i]. Retention plus the
	// shared emission arena makes a steady round allocation-free.
	queue, next    []proto.Message
	qTally, nTally []*stats.NetStats
	// emit is every member's emission arena, one generation per step a
	// message can be in flight (netmodel.Model.Generations): a Step routes
	// all it emits, the in-flight ring parks what is delayed without
	// copying it, and the Step's end takes back the oldest generation.
	emit proto.EmitArena
	// pending is the deferred-delivery queue: engine callbacks append
	// here under mu, and flushLocked drains it with the lock released so
	// handlers can reenter the Bus. delivering guards against nested
	// flushes; flushPos tracks progress so reentrant appends are drained
	// by the outermost flush.
	pending    []delivery
	flushPos   int
	delivering bool
	removals   []proto.ProcessID // per-Step scratch for grace-expired members
}

// delivery is one handler invocation waiting for the lock to be released.
type delivery struct {
	ts *topicState
	h  Handler
	ev proto.Event
}

// member is one (client, topic) protocol instance.
type member struct {
	pid     proto.ProcessID
	topic   *topicState
	engine  *core.Engine
	handler Handler
	client  string
	leaving int // grace rounds left after Cancel; 0 = active
}

// NewBus creates an empty bus, validating the configuration: the engine
// config, the chase cap, and the network (netmodel.Config.Validate on the
// round clock, with an unbounded horizon — the Bus runs open-ended).
func NewBus(cfg Config) (*Bus, error) {
	if cfg.Engine.Fanout == 0 { // treat zero value as "use defaults"
		cfg.Engine = core.DefaultConfig()
		cfg.Engine.Retransmit = true
		cfg.Engine.MaxRetransmitPerGossip = 64
	}
	if err := cfg.Engine.Validate(); err != nil {
		return nil, fmt.Errorf("pubsub: engine config: %w", err)
	}
	if cfg.MaxChase < 0 {
		return nil, fmt.Errorf("pubsub: MaxChase %d must be non-negative", cfg.MaxChase)
	}
	network := cfg.network()
	if err := network.Validate(netmodel.Clock{}); err != nil {
		return nil, fmt.Errorf("pubsub: %w", err)
	}

	root := rng.New(cfg.Seed)
	b := &Bus{
		cfg:      cfg,
		root:     root,
		maxChase: cfg.MaxChase,
		nextPID:  1,
		topics:   make(map[string]*topicState),
	}
	if b.maxChase == 0 {
		b.maxChase = defaultMaxChase
	}
	// Stream discipline mirrors the simulator's: the root splits happen in
	// a fixed order that depends only on the options, then one split per
	// subscription, so a Bus's whole history is a pure function of its
	// seed and the operation sequence. The delay stream is split only when
	// a delay model is in force, keeping zero-delay buses bit-identical to
	// pre-delay versions.
	lossRNG := root.Split()
	var delayRNG *rng.Source
	if network.EffectiveDelay() != nil {
		delayRNG = root.Split()
	}
	b.network = netmodel.New(network, netmodel.Clock{}, lossRNG, delayRNG)
	b.emit.SetGenerations(b.network.Generations())
	return b, nil
}

// Client is a named participant that can subscribe and publish.
type Client struct {
	bus  *Bus
	name string

	mu   sync.Mutex
	subs map[string]*Subscription
}

// NewClient registers a client.
func (b *Bus) NewClient(name string) *Client {
	return &Client{bus: b, name: name, subs: make(map[string]*Subscription)}
}

// Subscription is a client's membership in one topic group.
type Subscription struct {
	client *Client
	topic  string
	pid    proto.ProcessID

	mu        sync.Mutex
	cancelled bool
}

// Subscribe joins the topic's lpbcast group. The returned subscription
// receives every notification published on the topic (with probabilistic
// reliability, like any gossip member). Subscribing twice to the same
// topic is an error.
func (c *Client) Subscribe(topic string, h Handler) (*Subscription, error) {
	if topic == "" {
		return nil, errors.New("pubsub: empty topic")
	}
	c.mu.Lock()
	if _, dup := c.subs[topic]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("pubsub: %q already subscribed to %q", c.name, topic)
	}
	sub, err := c.bus.join(c.name, topic, h)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	sub.client = c
	c.subs[topic] = sub
	c.mu.Unlock()
	// The join gossip may already have delivered notifications (e.g. a
	// retransmit reply); flush them now that no client lock is held, so
	// handlers may reenter this same client.
	c.bus.flush()
	return sub, nil
}

// join creates the topic member and bootstraps it via an existing member
// (§3.4: a joiner contacts a process already in Π). On any failure the
// registration is rolled back completely — no ghost member keeps
// gossiping, and TopicSize is unchanged.
func (b *Bus) join(client, topic string, h Handler) (*Subscription, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	pid := b.nextPID
	b.nextPID++
	m := &member{pid: pid, handler: h, client: client}
	eng, err := core.New(pid, b.cfg.Engine, func(ev proto.Event) {
		if m.leaving == 0 {
			if tr := b.cfg.Tracer; tr != nil {
				tr.Record(trace.Event{Kind: trace.KindDeliver, Node: m.pid, EventID: ev.ID, N: int(b.now)})
			}
			if m.handler != nil {
				b.pending = append(b.pending, delivery{ts: m.topic, h: m.handler, ev: ev})
			}
		}
	}, b.root.Split())
	if err != nil {
		b.nextPID--
		return nil, err
	}
	// Every member emits into the bus's arena, which Step rotates once
	// every message cut from its oldest generation has arrived.
	eng.SetEmitArena(&b.emit)
	m.engine = eng

	ts, ok := b.topics[topic]
	created := !ok
	if created {
		ts = &topicState{name: topic}
		b.topics[topic] = ts
	}
	m.topic = ts
	existing := b.activeTopicMembers(ts)
	b.insertMember(pid, m)
	b.order = append(b.order, pid)
	ts.pids = append(ts.pids, pid)
	if len(existing) > 0 {
		// Send the subscription to one existing member, which gossips it
		// on the joiner's behalf.
		contact := existing[b.root.Intn(len(existing))]
		join, err := eng.JoinVia(contact)
		if err != nil {
			// Roll back the half-registration: without this the pid stayed
			// in members and the topic list, gossiping forever and
			// overcounting TopicSize while the caller saw only an error.
			b.dropMember(pid)
			b.order = b.order[:len(b.order)-1]
			ts.pids = ts.pids[:len(ts.pids)-1]
			if created {
				delete(b.topics, topic)
			}
			b.nextPID--
			return nil, err
		}
		// The join request is network traffic like any other: it runs
		// through partition, loss, and delay filtering and is accounted
		// to the topic.
		b.queue = append(b.queue[:0], join)
		b.qTally = append(b.qTally[:0], &ts.net)
		b.dispatchLocked(0)
	}
	if tr := b.cfg.Tracer; tr != nil {
		tr.Record(trace.Event{Kind: trace.KindJoinSent, Node: pid, N: int(b.now)})
	}
	return &Subscription{topic: topic, pid: pid}, nil
}

// lookupMember resolves a pid to its member record through the dense
// index; nil means the pid has left (or never existed).
func (b *Bus) lookupMember(pid proto.ProcessID) *member {
	if ix, ok := b.index.Lookup(pid); ok {
		return b.members[ix]
	}
	return nil
}

// insertMember assigns pid a dense slot and installs its record.
func (b *Bus) insertMember(pid proto.ProcessID, m *member) {
	ix := b.index.Add(pid)
	for uint64(len(b.members)) <= uint64(ix) {
		b.members = append(b.members, nil)
	}
	b.members[ix] = m
}

// dropMember releases pid's slot for reuse by a future subscription.
func (b *Bus) dropMember(pid proto.ProcessID) {
	if ix, ok := b.index.Lookup(pid); ok {
		b.members[ix] = nil
		b.index.Release(pid)
	}
}

// activeTopicMembers lists non-leaving members of a topic.
func (b *Bus) activeTopicMembers(ts *topicState) []proto.ProcessID {
	var out []proto.ProcessID
	for _, pid := range ts.pids {
		if m := b.lookupMember(pid); m != nil && m.leaving == 0 {
			out = append(out, pid)
		}
	}
	return out
}

// Publish disseminates payload on the topic. The client must be
// subscribed (every publisher is a group member, §3.1).
func (c *Client) Publish(topic string, payload []byte) (proto.Event, error) {
	c.mu.Lock()
	sub, ok := c.subs[topic]
	c.mu.Unlock()
	if !ok {
		return proto.Event{}, fmt.Errorf("pubsub: %q is not subscribed to %q", c.name, topic)
	}
	return sub.publish(payload)
}

func (s *Subscription) publish(payload []byte) (proto.Event, error) {
	s.mu.Lock()
	cancelled := s.cancelled
	s.mu.Unlock()
	if cancelled {
		return proto.Event{}, errors.New("pubsub: subscription cancelled")
	}
	b := s.client.bus
	b.mu.Lock()
	m := b.lookupMember(s.pid)
	if m == nil {
		b.mu.Unlock()
		return proto.Event{}, errors.New("pubsub: member no longer exists")
	}
	ev, err := m.engine.Publish(payload)
	// Publish delivers locally right away; hand the notification to the
	// publisher's own handler outside the lock.
	b.flushLocked()
	return ev, err
}

// leaveGraceRounds is how many gossip rounds a leaving member keeps
// gossiping so its unsubscription spreads (§3.4).
const leaveGraceRounds = 5

// Cancel unsubscribes from the topic: the member stops delivering
// immediately, gossips its unsubscription for a grace period, then leaves
// the group entirely.
//
// Cancel holds the client lock across the whole operation, so it is
// atomic with respect to concurrent Subscribe calls on the same client: a
// refused cancel (membership.ErrUnsubRefused) leaves every structure
// exactly as it was, and can never clobber a subscription that a racing
// Subscribe installed.
func (s *Subscription) Cancel() error {
	c := s.client
	c.mu.Lock()
	defer c.mu.Unlock()
	s.mu.Lock()
	if s.cancelled {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	b := c.bus
	b.mu.Lock()
	if m := b.lookupMember(s.pid); m != nil {
		if err := m.engine.Unsubscribe(b.now); err != nil {
			// Refused (unSubs buffer full, §3.4): nothing has been
			// mutated, so there is nothing to roll back; the caller can
			// retry later and the subscription stays fully live.
			b.mu.Unlock()
			return err
		}
		m.leaving = leaveGraceRounds
	}
	b.mu.Unlock()

	s.mu.Lock()
	s.cancelled = true
	s.mu.Unlock()
	if c.subs[s.topic] == s {
		delete(c.subs, s.topic)
	}
	return nil
}

// Step advances every topic group one gossip round: delayed messages due
// this round arrive first (in deterministic enqueue order), every member
// emits its periodic gossip into the bus's emission arena, leave grace
// periods tick down, and the batched dispatch loop routes the round's
// traffic with bounded response chasing. Once it is routed, the ring takes
// back its oldest generation of envelopes and the arena its oldest
// generation of emissions.
// Handlers run after the round's protocol work, with no locks held.
func (b *Bus) Step() {
	b.mu.Lock()
	b.stepLocked()
	b.flushLocked()
}

func (b *Bus) stepLocked() {
	b.now++
	queue, tally := b.network.Drain(b.now, b.queue[:0], b.qTally[:0])
	pre := len(queue)
	removals := b.removals[:0]
	for _, pid := range b.order {
		m := b.lookupMember(pid)
		queue = m.engine.TickAppend(b.now, queue)
		for len(tally) < len(queue) {
			tally = append(tally, &m.topic.net)
		}
		if m.leaving > 0 {
			m.leaving--
			if m.leaving == 0 {
				removals = append(removals, pid)
			}
		}
	}
	b.removals = removals
	for _, pid := range removals {
		b.removeMember(pid)
	}
	b.queue, b.qTally = queue, tally
	b.dispatchLocked(pre)
	b.network.EndPeriod(b.now)
	b.emit.Reset()
}

// StepN advances n gossip rounds.
func (b *Bus) StepN(n int) {
	for i := 0; i < n; i++ {
		b.Step()
	}
}

// dispatchLocked delivers b.queue, chasing same-round responses up to the
// chase cap. Every message runs through the network model
// (netmodel.Model.Classify) but the first pre, this round's delayed
// arrivals: they passed the filter when sent, so they settle their
// in-flight accounting (netmodel.Arrive) and go straight to their
// receivers. The destination may have completed its leave while one was in
// the air — an unknown destination now, as it is for a fresh message: views
// keep naming members for a while after they leave, and their traffic is
// accounted, not silently dropped. Responses still queued when the cap hits
// are counted per topic in TruncatedChase — the old silent 8-hop drop broke
// conservation exactly here.
func (b *Bus) dispatchLocked(pre int) {
	queue, next := b.queue, b.next
	tally, ntally := b.qTally, b.nTally
	for hop := 0; len(queue) > 0 && hop < b.maxChase; hop++ {
		next, ntally = next[:0], ntally[:0]
		for pos, msg := range queue {
			dst := b.lookupMember(msg.To)
			if pos < pre {
				if !netmodel.Arrive(tally[pos], dst != nil, true) {
					continue
				}
			} else if !b.network.Classify(&msg, b.now, b.now, dst != nil, true, tally[pos]) {
				continue
			}
			next = dst.engine.HandleMessageAppend(msg, b.now, next)
			for len(ntally) < len(next) {
				ntally = append(ntally, &dst.topic.net)
			}
		}
		queue, next = next, queue
		tally, ntally = ntally, tally
		pre = 0
	}
	for _, ledger := range tally[:len(queue)] {
		ledger.TruncatedChase++
	}
	b.queue, b.next = queue, next
	b.qTally, b.nTally = tally, ntally
}

// flush acquires the bus lock and drains the deferred-delivery queue.
func (b *Bus) flush() {
	b.mu.Lock()
	b.flushLocked()
}

// flushLocked drains the pending deliveries accumulated under the lock
// and invokes each handler with the lock released, then returns with the
// lock UNLOCKED. Handlers may therefore reenter the Bus freely — a
// handler that publishes appends new deliveries to pending, the nested
// flushLocked sees delivering and backs off, and this outermost loop
// re-reads len(pending) under the lock and drains them too. The old code
// called handlers from inside Step's critical section, so any reentrant
// call self-deadlocked.
func (b *Bus) flushLocked() {
	if b.delivering {
		b.mu.Unlock()
		return
	}
	b.delivering = true
	for b.flushPos < len(b.pending) {
		d := b.pending[b.flushPos]
		b.flushPos++
		b.mu.Unlock()
		d.h(d.ts.name, d.ev)
		b.mu.Lock()
	}
	b.pending = b.pending[:0]
	b.flushPos = 0
	b.delivering = false
	b.mu.Unlock()
}

// removeMember drops a member from routing and its topic list. The
// topicState itself is retained so the topic's NetStats survive.
func (b *Bus) removeMember(pid proto.ProcessID) {
	m := b.lookupMember(pid)
	if m == nil {
		return
	}
	if tr := b.cfg.Tracer; tr != nil {
		tr.Record(trace.Event{Kind: trace.KindLeave, Node: pid, N: int(b.now)})
	}
	b.dropMember(pid)
	if i := sort.Search(len(b.order), func(i int) bool { return b.order[i] >= pid }); i < len(b.order) && b.order[i] == pid {
		b.order = append(b.order[:i], b.order[i+1:]...)
	}
	ts := m.topic
	for i, p := range ts.pids {
		if p == pid {
			ts.pids = append(ts.pids[:i], ts.pids[i+1:]...)
			break
		}
	}
}

// TopicSize returns the number of active members of a topic.
func (b *Bus) TopicSize(topic string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ts, ok := b.topics[topic]; ok {
		return len(b.activeTopicMembers(ts))
	}
	return 0
}

// Graph snapshots the views of a topic's active members (those not in
// their leave grace) for membership analyses. The views are unfiltered: a
// member that has left stays visible wherever a view still names it.
func (b *Bus) Graph(topic string) membership.Graph {
	b.mu.Lock()
	defer b.mu.Unlock()
	g := membership.Graph{}
	if ts, ok := b.topics[topic]; ok {
		for _, pid := range b.activeTopicMembers(ts) {
			g[pid] = b.lookupMember(pid).engine.View()
		}
	}
	return g
}

// Topics lists topics with at least one member, sorted.
func (b *Bus) Topics() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.topics))
	for t, ts := range b.topics {
		if len(ts.pids) > 0 {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// NetStats returns the cumulative network counters of one topic. Counters
// persist after the last member leaves; an unknown topic reads as zero.
func (b *Bus) NetStats(topic string) stats.NetStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ts, ok := b.topics[topic]; ok {
		return ts.net
	}
	return stats.NetStats{}
}

// TotalNetStats merges every topic's counters. Conservation is linear,
// so the merged counters satisfy the same invariant.
func (b *Bus) TotalNetStats() stats.NetStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	var total stats.NetStats
	for _, ts := range b.topics {
		total.Merge(ts.net)
	}
	return total
}

// Now returns the current gossip round.
func (b *Bus) Now() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.now
}
