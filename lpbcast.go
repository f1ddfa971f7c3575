// Package lpbcast is a Go implementation of Lightweight Probabilistic
// Broadcast (Eugster, Guerraoui, Handurukande, Kermarrec, Kouznetsov —
// DSN 2001): gossip-based broadcast where every process maintains only a
// bounded random partial view of the membership, and where membership
// information travels on the same periodic gossip messages as event
// notifications and digests.
//
// The package exposes the live runtime: a Node couples the protocol engine
// to a Transport and a gossip timer. Two transports ship with the library —
// an in-process network with injectable loss and latency (NewInprocNetwork,
// ideal for tests and simulation-scale experiments) and a UDP transport
// (NewUDPTransport) for real deployments.
//
// Quickstart:
//
//	network := lpbcast.NewInprocNetwork(lpbcast.InprocConfig{})
//	defer network.Close()
//	a, _ := lpbcast.NewNode(1, mustAttach(network, 1))
//	b, _ := lpbcast.NewNode(2, mustAttach(network, 2),
//	        lpbcast.WithSeeds(1))
//	a.Start(); b.Start()
//	defer a.Close(); defer b.Close()
//	a.Publish([]byte("hello"))
//	ev := <-b.Deliveries()
//
// The analysis, simulation, and baseline layers used by the paper's
// evaluation live under internal/ and are driven through the cmd/ binaries
// and the repository-level benchmarks.
package lpbcast

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/membership"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Protocol-level types, re-exported for API users.
type (
	// ProcessID identifies a process (§3.1: ordered distinct identifiers).
	ProcessID = proto.ProcessID
	// EventID uniquely identifies a notification.
	EventID = proto.EventID
	// Event is an application notification.
	Event = proto.Event
	// Message is the wire-level envelope exchanged between processes.
	Message = proto.Message
	// Gossip is the protocol message body carried by gossip messages.
	Gossip = proto.Gossip
	// Stats are the engine's cumulative activity counters.
	Stats = core.Stats
)

// NilProcess is the zero ProcessID ("no process").
const NilProcess = proto.NilProcess

// MessageKind discriminates wire-level messages.
type MessageKind = proto.MessageKind

// Message kinds, re-exported for transport implementers and tracers.
const (
	GossipMsgKind            = proto.GossipMsg
	SubscribeMsgKind         = proto.SubscribeMsg
	RetransmitRequestMsgKind = proto.RetransmitRequestMsg
	RetransmitReplyMsgKind   = proto.RetransmitReplyMsg
)

// Transport moves messages between processes; see NewInprocNetwork and
// NewUDPTransport for the bundled implementations.
type Transport = transport.Transport

// Tracing types, re-exported for API users.
type (
	// Tracer consumes protocol trace events (see WithTracer).
	Tracer = trace.Tracer
	// TraceEvent is one traced protocol occurrence.
	TraceEvent = trace.Event
	// TraceRing retains the most recent trace events.
	TraceRing = trace.Ring
	// TraceCounters tallies trace events per kind.
	TraceCounters = trace.Counters
)

// NewTraceRing creates a bounded ring sink for WithTracer.
func NewTraceRing(capacity int) *TraceRing { return trace.NewRing(capacity) }

// NewTraceCounters creates a counting sink for WithTracer.
func NewTraceCounters() *TraceCounters { return trace.NewCounters() }

// config collects the node options.
type config struct {
	engine        core.Config
	engineFactory EngineFactory
	interval      time.Duration
	seeds         []ProcessID
	handler       func(Event)
	deliveryQueue int
	rngSeed       uint64
	hasSeedOpt    bool
	tracer        trace.Tracer
}

func defaultNodeConfig(id ProcessID) config {
	ec := core.DefaultConfig()
	// Engine timestamps are milliseconds on a live node; keep
	// unsubscriptions circulating for a minute by default.
	ec.Membership.UnsubTTL = 60_000
	// A live deployment pulls missing payloads via retransmission.
	ec.Retransmit = true
	ec.MaxRetransmitPerGossip = 64
	return config{
		engine:        ec,
		interval:      100 * time.Millisecond,
		deliveryQueue: 1024,
		rngSeed:       uint64(id) * 0x9e3779b97f4a7c15,
	}
}

// Option customizes a Node.
type Option func(*config)

// WithGossipInterval sets the gossip period T (default 100ms).
func WithGossipInterval(d time.Duration) Option {
	return func(c *config) { c.interval = d }
}

// WithFanout sets F, the number of gossip targets per period (default 3).
func WithFanout(f int) Option {
	return func(c *config) { c.engine.Fanout = f }
}

// WithViewSize sets l, the maximum partial-view size (default 15), and
// sizes the subs buffer to match.
func WithViewSize(l int) Option {
	return func(c *config) {
		c.engine.Membership.MaxView = l
		c.engine.Membership.MaxSubs = l
	}
}

// WithMaxEventIDs sets |eventIds|m, the advertised digest bound
// (default 60).
func WithMaxEventIDs(n int) Option {
	return func(c *config) { c.engine.MaxEventIDs = n }
}

// WithMaxEvents sets |events|m, the per-period forwarding buffer bound
// (default 30).
func WithMaxEvents(n int) Option {
	return func(c *config) { c.engine.MaxEvents = n }
}

// WithUnsubTTL sets how long unsubscriptions circulate, in engine time
// units (milliseconds on a live node; default one minute).
func WithUnsubTTL(d time.Duration) Option {
	return func(c *config) { c.engine.Membership.UnsubTTL = uint64(d / time.Millisecond) }
}

// WithCompactDigest switches the advertised digest to the §3.2 per-sender
// watermark representation.
func WithCompactDigest() Option {
	return func(c *config) { c.engine.DigestMode = core.CompactDigest }
}

// WithWeightedViews enables the §6.1 weighted-view heuristic: well-known
// view entries are evicted first and poorly-known ones are announced
// preferentially.
func WithWeightedViews() Option {
	return func(c *config) { c.engine.Membership.Policy = membership.Weighted }
}

// WithPrioritary declares the §4.4 prioritary processes: a very small set
// constantly kept in every view, used for bootstrap and to normalize views
// after pathological churn.
func WithPrioritary(ids ...ProcessID) Option {
	return func(c *config) { c.engine.Membership.Prioritary = append([]ProcessID(nil), ids...) }
}

// WithSeeds pre-populates the view with known members.
func WithSeeds(ids ...ProcessID) Option {
	return func(c *config) {
		c.seeds = append([]ProcessID(nil), ids...)
		c.hasSeedOpt = true
	}
}

// WithDeliveryHandler delivers events by callback instead of the Deliveries
// channel. The handler runs with the node's lock held, on whichever
// goroutine drove the engine (the transport's, or Publish's caller): it must
// not block or call back into the node.
func WithDeliveryHandler(h func(Event)) Option {
	return func(c *config) { c.handler = h }
}

// WithDeliveryQueue sets the Deliveries channel capacity (default 1024).
// When the application falls behind, the oldest buffered deliveries are
// dropped — a deliberate mirror of the protocol's probabilistic guarantees.
func WithDeliveryQueue(n int) Option {
	return func(c *config) { c.deliveryQueue = n }
}

// WithRNGSeed fixes the node's randomness for reproducible runs.
func WithRNGSeed(seed uint64) Option {
	return func(c *config) { c.rngSeed = seed }
}

// WithTracer streams protocol events (gossip emission/reception,
// deliveries, retransmissions, membership changes) into tr. Use
// NewTraceRing for a debugging buffer or NewTraceCounters for metrics;
// nodes without a tracer pay no tracing cost. The tracer is called with the
// node's lock held and must not call back into the node.
func WithTracer(tr Tracer) Option {
	return func(c *config) { c.tracer = tr }
}

// WithoutRetransmission disables the digest-driven pull of missing
// payloads (enabled by default on live nodes).
func WithoutRetransmission() Option {
	return func(c *config) {
		c.engine.Retransmit = false
		c.engine.MaxRetransmitPerGossip = 0
	}
}

// WithLogger directs retransmission requests to a dedicated logger
// process instead of the digest sender — the rpbcast-style deterministic
// third phase the paper sketches in §7. The logger is an ordinary node,
// ideally configured with WithArchiveSize large enough to hold the
// workload's history.
func WithLogger(id ProcessID) Option {
	return func(c *config) { c.engine.Logger = id }
}

// WithArchiveSize bounds the retransmission archive (default 200 events);
// loggers want this large.
func WithArchiveSize(n int) Option {
	return func(c *config) { c.engine.ArchiveSize = n }
}

// Engine is the protocol state machine a Node drives: the lpbcast core
// engine by default, or any compatible gossip protocol (see PbcastEngine)
// installed via WithEngine. Implementations follow the sans-IO append
// contract of internal/core: TickAppend and HandleMessageAppend append
// their emissions to the caller's scratch slice, and all gossip messages
// of one round may share a read-only *Gossip.
type Engine interface {
	// Publish broadcasts a new notification and delivers it locally.
	Publish(payload []byte) Event
	// TickAppend performs one periodic gossip emission, appending the
	// outgoing messages to out.
	TickAppend(now uint64, out []Message) []Message
	// HandleMessageAppend processes one inbound message, appending any
	// responses to out.
	HandleMessageAppend(m Message, now uint64, out []Message) []Message
	// View returns the current membership view (copy).
	View() []ProcessID
	// ViewLen returns the view size without copying.
	ViewLen() int
	// ViewCap returns the view bound l — how many members the view can
	// hold. Cluster seeding fills up to this many peers by default.
	ViewCap() int
	// Seed bootstraps the view with known members.
	Seed(ps []ProcessID)
	// Stats returns cumulative activity counters.
	Stats() Stats
	// Knows reports whether id has been delivered.
	Knows(id EventID) bool
	// JoinVia returns the subscription request to send to a known member.
	JoinVia(contact ProcessID) (Message, error)
	// Unsubscribe starts a graceful departure.
	Unsubscribe(now uint64) error
}

// EngineFactory builds the protocol engine for a node. deliver is the
// node's delivery sink (it must be called for every LPB-DELIVER); rngSeed
// is the node's configured randomness seed (WithRNGSeed).
type EngineFactory func(id ProcessID, deliver func(Event), rngSeed uint64) (Engine, error)

// WithEngine installs a custom protocol engine, making the live runtime
// protocol-agnostic: the node keeps its transport, batching, timer, and
// delivery plumbing, while the installed engine defines the gossip
// protocol. Engine-shaping options (WithFanout, WithViewSize, ...) do not
// reach a custom engine; configure it in the factory. See PbcastEngine for
// the bundled pbcast baseline, enabling the paper's §6 head-to-head
// comparisons on one testbed.
func WithEngine(f EngineFactory) Option {
	return func(c *config) { c.engineFactory = f }
}

// emissionReuser is the optional engine fast path: when the transport
// serializes messages on send, the node lets the engine recycle its
// per-round emission buffers (see core.Engine.SetEmissionReuse).
type emissionReuser interface {
	SetEmissionReuse(on bool)
}

// Node is a live lpbcast process: the protocol engine, a transport, and a
// gossip timer. Create with NewNode, launch with Start, stop with Close.
//
// Node has two triggers, as the paper's process does: the transport calls
// it with every inbound datagram or burst (Transport.Serve), and a ticker
// goroutine runs the periodic emission. Both hold the node's lock across
// the engine call and the SendBatch of its emissions, and the engine's
// append-style API reuses per-node scratch buffers, so the steady-state
// gossip round performs no per-round allocation (see
// BenchmarkLiveNodeRound).
type Node struct {
	id       ProcessID
	tr       Transport
	interval time.Duration
	start    time.Time
	maxView  int

	mu     sync.Mutex
	engine Engine
	closed bool

	handler    func(Event)
	deliveries chan Event
	dropped    uint64
	tracer     trace.Tracer

	// out is the emission scratch, guarded by mu: a tick or a burst holds
	// the lock from the engine call until out has been sent.
	out []Message

	cancel chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
}

// Broadcaster is the protocol-agnostic live broadcast API: everything an
// application needs to publish and receive notifications, regardless of
// which gossip protocol runs underneath. *Node implements it for every
// installed Engine (lpbcast by default, the pbcast baseline via
// WithEngine(PbcastEngine(...))), so testbed experiments can swap
// protocols behind one variable.
type Broadcaster interface {
	// ID returns the process id.
	ID() ProcessID
	// Publish broadcasts a notification and returns the assigned event.
	Publish(payload []byte) (Event, error)
	// Deliveries returns the delivery channel (nil when a handler is set).
	Deliveries() <-chan Event
	// View returns the current partial view.
	View() []ProcessID
	// Stats returns cumulative protocol counters.
	Stats() Stats
	// Close stops the process.
	Close() error
}

var _ Broadcaster = (*Node)(nil)
var _ Engine = (*core.Engine)(nil)

// NewNode creates a node for process id over tr. The node does not gossip
// until Start is called.
func NewNode(id ProcessID, tr Transport, opts ...Option) (*Node, error) {
	if id == NilProcess {
		return nil, errors.New("lpbcast: node id must be non-zero")
	}
	if tr == nil {
		return nil, errors.New("lpbcast: transport must not be nil")
	}
	cfg := defaultNodeConfig(id)
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.interval <= 0 {
		return nil, fmt.Errorf("lpbcast: gossip interval %v must be positive", cfg.interval)
	}
	n := &Node{
		id:       id,
		tr:       tr,
		interval: cfg.interval,
		handler:  cfg.handler,
		tracer:   cfg.tracer,
		cancel:   make(chan struct{}),
	}
	if cfg.handler == nil {
		n.deliveries = make(chan Event, cfg.deliveryQueue)
	}
	factory := cfg.engineFactory
	if factory == nil {
		engineCfg := cfg.engine
		factory = func(id ProcessID, deliver func(Event), rngSeed uint64) (Engine, error) {
			return core.New(id, engineCfg, deliver, rng.New(rngSeed))
		}
	}
	eng, err := factory(id, n.onDeliver, cfg.rngSeed)
	if err != nil {
		return nil, err
	}
	if eng == nil {
		return nil, errors.New("lpbcast: engine factory returned nil engine")
	}
	if len(cfg.seeds) > 0 {
		eng.Seed(cfg.seeds)
	}
	n.maxView = eng.ViewCap()
	// When the transport serializes messages before Send/SendBatch return,
	// the engine may recycle its per-round emission buffers: together with
	// the node's scratch slices this makes the gossip round allocation-free.
	if _, ok := tr.(transport.Serializer); ok {
		if r, ok := eng.(emissionReuser); ok {
			r.SetEmissionReuse(true)
		}
	}
	n.engine = eng
	return n, nil
}

// record traces an event when a tracer is configured.
func (n *Node) record(kind trace.Kind, peer ProcessID, id EventID, count int) {
	if n.tracer == nil {
		return
	}
	n.tracer.Record(trace.Event{
		When:    time.Now(),
		Kind:    kind,
		Node:    n.id,
		Peer:    peer,
		EventID: id,
		N:       count,
	})
}

// onDeliver dispatches a delivery to the handler or the channel.
func (n *Node) onDeliver(ev Event) {
	n.record(trace.KindDeliver, NilProcess, ev.ID, len(ev.Payload))
	if n.handler != nil {
		n.handler(ev)
		return
	}
	select {
	case n.deliveries <- ev:
	default:
		// Drop the oldest delivery to keep the stream fresh. The eviction
		// is itself a lost delivery, so it counts toward dropped.
		select {
		case <-n.deliveries:
			n.dropped++
		default:
		}
		select {
		case n.deliveries <- ev:
		default:
			n.dropped++
		}
	}
}

// ID returns the node's process id.
func (n *Node) ID() ProcessID { return n.id }

// Deliveries returns the delivery channel (nil when a handler is set).
func (n *Node) Deliveries() <-chan Event { return n.deliveries }

// now returns the engine timestamp: milliseconds since Start.
func (n *Node) now() uint64 {
	if n.start.IsZero() {
		return 0
	}
	return uint64(time.Since(n.start) / time.Millisecond)
}

// Start hands the node to its transport as the inbound handler and launches
// the gossip ticker. It is idempotent.
func (n *Node) Start() {
	n.once.Do(func() {
		n.start = time.Now()
		n.tr.Serve(n.handleBurst)
		n.wg.Add(1)
		go n.run()
	})
}

// run is the node's ticker loop: one periodic emission per interval, until
// Close.
func (n *Node) run() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.interval)
	defer ticker.Stop()
	for {
		select {
		case <-n.cancel:
			return
		case <-ticker.C:
			n.gossipRound()
		}
	}
}

// gossipRound performs one periodic emission into the node's scratch
// buffer and flushes it as a single batch.
//
// The engine may reuse its emission buffers when the transport serializes
// on send (SetEmissionReuse): the *Gossip a tick emits is overwritten by the
// next one. That is safe because the lock is held from the tick to the end
// of its SendBatch, so nothing can tick or handle in between, on either of
// the two goroutines that drive the engine.
func (n *Node) gossipRound() {
	now := n.now()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.out = n.engine.TickAppend(now, n.out[:0])
	if len(n.out) > 0 {
		n.record(trace.KindGossipSent, NilProcess, EventID{}, len(n.out))
	}
	n.flush()
}

// handleBurst is the node's inbound handler (see Transport.Serve): it feeds
// one datagram's or burst's messages through the engine and flushes every
// response as a single batch, all under one lock acquisition. msgs belong
// to the transport and are read, never kept; engines copy what they retain.
// Traced nodes record per message so every trace event carries exact
// provenance (which peer's gossip changed the view, which message triggered
// which retransmission). A closed node handles nothing.
func (n *Node) handleBurst(msgs []Message) {
	now := n.now()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.out = n.out[:0]
	for _, m := range msgs {
		if m.To != n.id && m.To != NilProcess {
			continue // not addressed to us; stray datagram
		}
		if n.tracer == nil {
			n.out = n.engine.HandleMessageAppend(m, now, n.out)
			continue
		}
		start, before := len(n.out), n.engine.ViewLen()
		n.out = n.engine.HandleMessageAppend(m, now, n.out)
		if m.Kind == GossipMsgKind {
			n.record(trace.KindGossipReceived, m.From, EventID{}, 0)
		}
		if after := n.engine.ViewLen(); after != before {
			n.record(trace.KindViewChange, m.From, EventID{}, after)
		}
		for _, o := range n.out[start:] {
			if o.Kind == RetransmitRequestMsgKind {
				n.record(trace.KindRetransmitRequest, o.To, EventID{}, len(o.Request))
			}
			if o.Kind == RetransmitReplyMsgKind {
				n.record(trace.KindRetransmitServed, o.To, EventID{}, len(o.Reply))
			}
		}
	}
	n.flush()
}

// flush transmits the scratch buffer as one batch, tolerating transport
// errors (loss is part of the model). Called with mu held.
func (n *Node) flush() {
	if len(n.out) == 0 {
		return
	}
	_ = n.tr.SendBatch(n.out)
	n.out = n.out[:0]
}

// Publish broadcasts a notification (LPB-CAST) and returns the assigned
// event. The event is delivered locally first.
func (n *Node) Publish(payload []byte) (Event, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return Event{}, errors.New("lpbcast: node closed")
	}
	return n.engine.Publish(payload), nil
}

// Join sends a subscription request to a known member (§3.4) and seeds the
// view with it. Call Start first; re-invoke if no gossip arrives within a
// few gossip periods (the paper's timeout-and-retry).
func (n *Node) Join(contact ProcessID) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("lpbcast: node closed")
	}
	msg, err := n.engine.JoinVia(contact)
	n.mu.Unlock()
	if err != nil {
		return err
	}
	n.record(trace.KindJoinSent, contact, EventID{}, 0)
	return n.tr.Send(msg)
}

// JoinAndWait joins via contact and blocks until gossip starts arriving
// (view grows beyond the contact), retrying the subscription every few
// gossip periods, until timeout.
func (n *Node) JoinAndWait(contact ProcessID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	poll := n.interval / 4
	if poll <= 0 {
		poll = time.Millisecond
	}
	for {
		if err := n.Join(contact); err != nil {
			return err
		}
		// Poll for incoming gossip for a few periods before re-sending the
		// subscription (the paper's timeout-triggered re-emission).
		retryAt := time.Now().Add(3 * n.interval)
		for time.Now().Before(retryAt) {
			if len(n.View()) > 1 || n.Stats().GossipsReceived > 0 {
				return nil
			}
			if !time.Now().Before(deadline) {
				return fmt.Errorf("lpbcast: join via %v timed out after %v", contact, timeout)
			}
			select {
			case <-n.cancel:
				return errors.New("lpbcast: node closed while joining")
			case <-time.After(poll):
			}
		}
	}
}

// Leave starts a graceful departure (§3.4): the node's unsubscription is
// gossiped for a grace period so other views purge it, then the node stops
// announcing itself. Returns membership.ErrUnsubRefused while the local
// unSubs buffer is too full (retry later).
func (n *Node) Leave() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errors.New("lpbcast: node closed")
	}
	if err := n.engine.Unsubscribe(n.now()); err != nil {
		return err
	}
	n.record(trace.KindLeave, NilProcess, EventID{}, 0)
	return nil
}

// View returns the node's current partial view.
func (n *Node) View() []ProcessID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.engine.View()
}

// Stats returns the engine counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.engine.Stats()
}

// DroppedDeliveries reports deliveries lost to a saturated Deliveries
// channel.
func (n *Node) DroppedDeliveries() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dropped
}

// Close stops the node: once it returns, the engine is not called and no
// delivery is made, whatever still arrives on the transport (the handler
// returns at once). It waits for the ticker, never while holding the lock,
// which the transport's goroutine may be waiting for inside the handler. It
// does not close the transport.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	close(n.cancel)
	n.wg.Wait()
	return nil
}

// InprocConfig shapes an in-process network (see NewInprocNetwork).
type InprocConfig struct {
	// LossProbability is the Bernoulli per-message loss ε.
	LossProbability float64
	// MinDelay/MaxDelay bound uniformly random per-message latency.
	MinDelay, MaxDelay time.Duration
	// Seed drives the loss/latency randomness.
	Seed uint64
}

// Network is an in-process message fabric for building local clusters.
type Network = transport.Network

// NewInprocNetwork creates an in-process network with the given loss and
// latency model — the library's stand-in for the paper's LAN testbed.
func NewInprocNetwork(cfg InprocConfig) *Network {
	var loss fault.LossModel
	if cfg.LossProbability > 0 {
		loss = fault.NewBernoulli(cfg.LossProbability, rng.New(cfg.Seed^0xabcdef))
	}
	return transport.NewNetwork(transport.NetworkConfig{
		Loss:     loss,
		MinDelay: cfg.MinDelay,
		MaxDelay: cfg.MaxDelay,
		Seed:     cfg.Seed,
	})
}

// UDPTransport is the UDP implementation of Transport.
type UDPTransport = transport.UDP

// NewUDPTransport binds a UDP transport for process id at bindAddr
// (e.g. "0.0.0.0:7946", or port 0 for an ephemeral port). Register at
// least one peer with AddPeer, then pass it to NewNode.
func NewUDPTransport(id ProcessID, bindAddr string) (*UDPTransport, error) {
	return transport.NewUDP(id, bindAddr)
}

// TraceKind classifies trace events (see the trace sinks above).
type TraceKind = trace.Kind

// Trace event kinds, re-exported.
const (
	TraceGossipSent        = trace.KindGossipSent
	TraceGossipReceived    = trace.KindGossipReceived
	TraceDeliver           = trace.KindDeliver
	TraceRetransmitRequest = trace.KindRetransmitRequest
	TraceRetransmitServed  = trace.KindRetransmitServed
	TraceJoinSent          = trace.KindJoinSent
	TraceLeave             = trace.KindLeave
	TraceViewChange        = trace.KindViewChange
)

// TraceMulti fans trace events out to several sinks.
func TraceMulti(sinks ...Tracer) Tracer { return trace.Multi(sinks) }

// WithMembershipEvery gossips membership information only on every k-th
// emission (§6.1 frequency experiment; the paper found k > 1 degrades
// view quality and latency — leave at 1 unless experimenting).
func WithMembershipEvery(k int) Option {
	return func(c *config) { c.engine.MembershipEvery = k }
}
