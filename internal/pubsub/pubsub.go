// Package pubsub implements the application layer the paper built lpbcast
// for (§1, §3.1, ref [8]): topic-based publish/subscribe. Each topic is an
// independent lpbcast group Π — subscribing to a topic is joining its
// group, unsubscribing is leaving it, and publishing disseminates a
// notification through the topic's gossip.
//
// The Bus keeps topics, clients, handlers, leave grace counters and one
// stats.NetStats ledger per topic; the simulator drives the engines. All
// members of all topics are processes of one sim.Cluster built empty: a
// subscription adds its engine to the cluster (counting its traffic in its
// topic's ledger) and routes its join request through the cluster, a
// finished leave removes it, and a Step is one RunRound — the executor's
// synchronous round on one shard and the round clock, with its emission
// arena, its network model (internal/netmodel), its response chase and its
// poisoning. Each topic's ledger satisfies the same conservation invariant
// as the simulator's, TruncatedChase included.
//
// The package is deliberately deterministic: a Bus advances in explicit
// gossip rounds (Step), which makes the dynamic-membership behaviour easy
// to test and to demonstrate. Wiring the same engines to live transports
// instead is exactly what the root lpbcast package does.
package pubsub

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Handler receives notifications delivered on a topic. Handlers run with
// no Bus locks held, so they may call Publish, Subscribe, or Cancel —
// including on the client that is being delivered to.
type Handler func(topic string, ev proto.Event)

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

// topicState is one topic group: its active members (not in their leave
// grace), in subscription order, how many members are in their grace, and
// its network accounting. The state outlives its members — a
// fully-unsubscribed topic keeps its NetStats — so counters never reset
// behind a caller's back; Topics only lists topics with at least one
// member.
type topicState struct {
	name    string
	members []*member
	leaving int
	net     stats.NetStats
}

// Bus hosts topic groups and steps their members on one simulated cluster.
//
// Bus is safe for concurrent use; Step serializes protocol activity.
type Bus struct {
	mu      sync.Mutex
	cfg     Config
	root    *rng.Source
	cluster *sim.Cluster // every member's engine, in the slot its subscription got
	nextPID proto.ProcessID
	topics  map[string]*topicState
	// pending is the deferred-delivery queue: engine callbacks append
	// here under mu, and flushLocked drains it with the lock released so
	// handlers can reenter the Bus. delivering guards against nested
	// flushes; flushPos tracks progress so reentrant appends are drained
	// by the outermost flush.
	pending    []delivery
	flushPos   int
	delivering bool
	// leavers are the members in their leave grace, in Cancel order; each
	// Step's end counts their grace down and removes those it runs out for.
	leavers []*member
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
	engine  *core.Engine // nil once the member has left
	handler Handler
	leaving int // grace rounds left after Cancel; 0 = active
}

// NewBus creates an empty bus, validating the configuration: the engine
// config and the network (netmodel.Config.Validate on the round clock,
// with an unbounded horizon — the Bus runs open-ended).
func NewBus(cfg Config) (*Bus, error) {
	if cfg.Engine.Fanout == 0 { // treat zero value as "use defaults"
		cfg.Engine = core.DefaultConfig()
		cfg.Engine.Retransmit = true
		cfg.Engine.MaxRetransmitPerGossip = 64
	}
	if err := cfg.Engine.Validate(); err != nil {
		return nil, fmt.Errorf("pubsub: engine config: %w", err)
	}
	// Stream discipline mirrors the simulator's: the root splits happen in
	// a fixed order that depends only on the options — the cluster's loss
	// stream, then its delay stream when a delay model is in force — then
	// one split per subscription, so a Bus's whole history is a pure
	// function of its seed and the operation sequence.
	root := rng.New(cfg.Seed)
	cluster, err := sim.NewEmptyCluster(sim.Options{
		Epsilon: cfg.Epsilon, Delay: cfg.Delay, Topology: cfg.Topology, Partitions: cfg.Partitions,
	}, root)
	if err != nil {
		return nil, fmt.Errorf("pubsub: %w", err)
	}
	return &Bus{cfg: cfg, root: root, cluster: cluster, nextPID: 1, topics: make(map[string]*topicState)}, nil
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
	m      *member

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
	sub, err := c.bus.join(topic, h)
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
// (§3.4: a joiner contacts a process already in Π). The member joins the
// cluster only once its join request exists, so a failed join leaves no
// ghost member gossiping and TopicSize unchanged.
func (b *Bus) join(topic string, h Handler) (*Subscription, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := &member{pid: b.nextPID, handler: h}
	eng, err := core.New(m.pid, b.cfg.Engine, func(ev proto.Event) {
		if m.leaving == 0 {
			if tr := b.cfg.Tracer; tr != nil {
				tr.Record(trace.Event{Kind: trace.KindDeliver, Node: m.pid, EventID: ev.ID, N: int(b.cluster.Now())})
			}
			if m.handler != nil {
				b.pending = append(b.pending, delivery{ts: m.topic, h: m.handler, ev: ev})
			}
		}
	}, b.root.Split())
	if err != nil {
		return nil, err
	}
	ts, ok := b.topics[topic]
	if !ok {
		ts = &topicState{name: topic}
	}
	var join proto.Message
	existing := len(ts.members) > 0
	if existing {
		// Send the subscription to one active member, which gossips it on
		// the joiner's behalf.
		if join, err = eng.JoinVia(ts.members[b.root.Intn(len(ts.members))].pid); err != nil {
			return nil, err
		}
	}
	b.nextPID++
	b.topics[topic] = ts
	m.topic, m.engine = ts, eng
	ts.members = append(ts.members, m)
	b.cluster.Add(eng, &ts.net)
	if existing {
		// The join request is network traffic like any other: it runs
		// through partition, loss, and delay filtering and is accounted
		// to the topic.
		b.cluster.Route(join)
	}
	if tr := b.cfg.Tracer; tr != nil {
		tr.Record(trace.Event{Kind: trace.KindJoinSent, Node: m.pid, N: int(b.cluster.Now())})
	}
	return &Subscription{topic: topic, m: m}, nil
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
	if s.m.engine == nil {
		b.mu.Unlock()
		return proto.Event{}, errors.New("pubsub: member no longer exists")
	}
	ev, err := s.m.engine.Publish(payload)
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
	if m := s.m; m.engine != nil {
		if err := m.engine.Unsubscribe(b.cluster.Now()); err != nil {
			// Refused (unSubs buffer full, §3.4): nothing has been
			// mutated, so there is nothing to roll back; the caller can
			// retry later and the subscription stays fully live.
			b.mu.Unlock()
			return err
		}
		m.leaving = leaveGraceRounds
		b.leavers = append(b.leavers, m)
		ts := m.topic
		i := slices.Index(ts.members, m)
		ts.members = slices.Delete(ts.members, i, i+1)
		ts.leaving++
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

// Step advances every topic group one gossip round: one RunRound of the
// cluster, in which delayed messages due this round arrive first, every
// member emits its periodic gossip in slot order, and the round's traffic
// is routed with bounded response chasing. Then, at the period boundary,
// leave grace periods tick down and the members whose grace ran out are
// removed.
// Handlers run after the round's protocol work, with no locks held.
func (b *Bus) Step() {
	b.mu.Lock()
	b.cluster.RunRound()
	kept := b.leavers[:0]
	for _, m := range b.leavers {
		if m.leaving--; m.leaving == 0 {
			b.removeMember(m)
		} else {
			kept = append(kept, m)
		}
	}
	clear(b.leavers[len(kept):])
	b.leavers = kept
	b.flushLocked()
}

// StepN advances n gossip rounds.
func (b *Bus) StepN(n int) {
	for i := 0; i < n; i++ {
		b.Step()
	}
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

// removeMember takes a member whose grace ran out out of the cluster. The
// topicState itself is retained so the topic's NetStats survive.
func (b *Bus) removeMember(m *member) {
	if tr := b.cfg.Tracer; tr != nil {
		tr.Record(trace.Event{Kind: trace.KindLeave, Node: m.pid, N: int(b.cluster.Now())})
	}
	b.cluster.Remove(m.pid)
	m.engine = nil
	m.topic.leaving--
}

// TopicSize returns the number of active members of a topic.
func (b *Bus) TopicSize(topic string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ts, ok := b.topics[topic]; ok {
		return len(ts.members)
	}
	return 0
}

// Topics lists topics with at least one member, sorted.
func (b *Bus) Topics() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.topics))
	for t, ts := range b.topics {
		if len(ts.members)+ts.leaving > 0 {
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
