package transport

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
)

// NetworkConfig shapes an in-process network.
type NetworkConfig struct {
	// Loss drops messages; nil means no loss. The model is consulted under
	// the fabric lock, so it needs no internal synchronization.
	Loss fault.LossModel
	// Topology assigns every directed link a class (see SetTopology). It
	// drives partition cuts and, when DelayUnit is set, per-class delays.
	// Nil means every link is fault.LinkLocal.
	Topology fault.Topology
	// Partitions are scheduled link-class cuts, with windows in
	// milliseconds of fabric time (see NowMillis). More can be injected at
	// runtime with AddPartition.
	Partitions []fault.Partition
	// MinDelay/MaxDelay bound the uniformly distributed per-message
	// delivery latency. Zero values deliver immediately.
	MinDelay, MaxDelay time.Duration
	// DelayUnit converts the topology's round-granular link delays to wall
	// time: a link profile delay of d adds d×DelayUnit (plus jitter drawn
	// between the profile bounds) on top of MinDelay/MaxDelay. Zero
	// ignores profile delays.
	DelayUnit time.Duration
	// QueueLen is each endpoint's inbound buffer; a full buffer drops new
	// messages (like a UDP socket buffer). Default 1024.
	QueueLen int
	// Seed drives the latency/loss randomness.
	Seed uint64
}

// Network is an in-process message fabric connecting Endpoints. It
// replaces the paper's physical testbed: one goroutine per process, channel
// queues standing in for Fast Ethernet, with the simulator's fault
// abstractions — LossModel, Topology link classes, scheduled Partitions —
// injected at the fabric, mutable while the cluster runs (the control
// plane's fault-injection endpoints mutate them over HTTP).
//
// Network is safe for concurrent use.
type Network struct {
	cfg   NetworkConfig
	start time.Time

	mu     sync.Mutex
	rng    *rng.Source
	eps    map[proto.ProcessID]*Endpoint
	closed bool

	// Mutable fault state, guarded by mu (loss models are stateful; every
	// Drop call happens under the lock).
	loss  fault.LossModel
	topo  fault.Topology
	parts []fault.Partition

	timers sync.WaitGroup

	stats Stats
}

// NewNetwork creates an empty network.
func NewNetwork(cfg NetworkConfig) *Network {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	return &Network{
		cfg:   cfg,
		start: time.Now(),
		rng:   rng.New(cfg.Seed),
		eps:   make(map[proto.ProcessID]*Endpoint),
		loss:  cfg.Loss,
		topo:  cfg.Topology,
		parts: append([]fault.Partition(nil), cfg.Partitions...),
	}
}

// maxBurst bounds how many queued messages one handler call receives; it
// caps both the latency of the burst's first message and the delivery
// goroutine's scratch.
const maxBurst = 256

// Endpoint is one process's attachment to a Network. It is consumed either
// through Serve or through the channel Recv returns, never both.
type Endpoint struct {
	net *Network
	id  proto.ProcessID
	in  chan proto.Message

	mu      sync.Mutex
	closed  bool
	serving bool
	served  sync.WaitGroup // the delivery goroutine, once Serve starts it
}

// Attach creates and registers an endpoint for process id.
func (n *Network) Attach(id proto.ProcessID) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.eps[id]; dup {
		return nil, fmt.Errorf("transport: process %v already attached", id)
	}
	ep := &Endpoint{net: n, id: id, in: make(chan proto.Message, n.cfg.QueueLen)}
	n.eps[id] = ep
	return ep, nil
}

// Stats implements StatsProvider: the fabric-wide counter ledger.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// NowMillis is the fabric clock: milliseconds since the network was
// created. Partition windows are expressed on this clock.
func (n *Network) NowMillis() uint64 {
	return uint64(time.Since(n.start) / time.Millisecond)
}

// SetLoss replaces the loss model while the network runs. Nil disables
// loss.
func (n *Network) SetLoss(m fault.LossModel) {
	n.mu.Lock()
	n.loss = m
	n.mu.Unlock()
}

// SetTopology replaces the link-class topology while the network runs.
// Scheduled partitions referencing classes the new topology lacks are
// dropped (their links no longer exist). Nil restores the flat
// single-class fabric.
func (n *Network) SetTopology(t fault.Topology) error {
	if t != nil {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.topo = t
	classes := 1
	if t != nil {
		classes = t.Classes()
	}
	kept := n.parts[:0]
	for _, p := range n.parts {
		if partitionFitsClasses(p, classes) {
			kept = append(kept, p)
		}
	}
	n.parts = kept
	return nil
}

// Topology returns the current link-class topology (nil when flat).
func (n *Network) Topology() fault.Topology {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.topo
}

// AddPartition schedules a partition window on the fabric clock
// (milliseconds, see NowMillis). Unlike the simulator's static schedules,
// live windows may overlap — cuts just union. Classes must exist in the
// current topology; an empty class list cuts every link.
func (n *Network) AddPartition(p fault.Partition) error {
	if p.From >= p.To {
		return fmt.Errorf("transport: empty partition window [%d,%d)", p.From, p.To)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	classes := 1
	if n.topo != nil {
		classes = n.topo.Classes()
	}
	if !partitionFitsClasses(p, classes) {
		return fmt.Errorf("transport: partition %v references a link class outside [0,%d)", p, classes)
	}
	n.parts = append(n.parts, p)
	return nil
}

// ClearPartitions heals the network: every scheduled or active partition
// is removed. It returns how many were cleared.
func (n *Network) ClearPartitions() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	cleared := len(n.parts)
	n.parts = n.parts[:0]
	return cleared
}

// Partitions snapshots the scheduled partition windows.
func (n *Network) Partitions() []fault.Partition {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]fault.Partition(nil), n.parts...)
}

// partitionFitsClasses reports whether every class the partition names
// exists among the topology's classes.
func partitionFitsClasses(p fault.Partition, classes int) bool {
	for _, c := range p.Classes {
		if c < 0 || int(c) >= classes {
			return false
		}
	}
	return true
}

// Close shuts the fabric down: all endpoints close and in-flight delayed
// messages are flushed or discarded.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.mu.Unlock()

	n.timers.Wait() // let delayed deliveries settle
	for _, ep := range eps {
		ep.closeLocal()
	}
	for _, ep := range eps {
		ep.served.Wait()
	}
	return nil
}

// deliver routes m to its destination endpoint, applying loss and latency.
func (n *Network) deliver(m proto.Message) error {
	buf := [1]proto.Message{m}
	return n.deliverBatch(buf[:])
}

// deliverBatch routes a burst of messages under a single lock acquisition:
// partition cuts, loss, latency, and routing for every message are decided
// while the fabric lock is held once, and zero-delay messages are enqueued
// inline (buffered channel sends never block). Lock order is always n.mu
// then ep.mu; no path acquires them in reverse.
func (n *Network) deliverBatch(msgs []proto.Message) error {
	now := n.NowMillis()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	n.stats.Datagrams++
	for _, m := range msgs {
		n.stats.Sent++
		dst, ok := n.eps[m.To]
		if !ok {
			n.stats.Dropped++
			continue // unknown peers lose messages silently, like UDP
		}
		class := fault.LinkLocal
		if n.topo != nil {
			class = n.topo.Class(m.From, m.To)
		}
		if fault.CutLink(n.parts, class, now) {
			n.stats.Dropped++
			n.stats.DroppedInPartition++
			continue
		}
		if n.loss != nil && n.loss.Drop(m.From, m.To, now) {
			n.stats.Dropped++
			continue
		}
		delay := n.drawDelay(class)
		if delay <= 0 {
			if delivered, overflow := dst.tryEnqueue(m); delivered {
				n.stats.Received++
			} else if overflow {
				n.stats.Dropped++
			}
			continue
		}
		m := m
		n.timers.Add(1)
		time.AfterFunc(delay, func() {
			defer n.timers.Done()
			dst.enqueue(m, n)
		})
	}
	n.mu.Unlock()
	return nil
}

// drawDelay picks a message's delivery latency: the configured uniform
// MinDelay/MaxDelay band, plus the link-class profile delay scaled by
// DelayUnit when a topology with DelayUnit is in force. Called with n.mu
// held (it consumes the fabric RNG).
func (n *Network) drawDelay(class fault.LinkClass) time.Duration {
	var delay time.Duration
	if n.cfg.MaxDelay > 0 {
		span := n.cfg.MaxDelay - n.cfg.MinDelay
		delay = n.cfg.MinDelay
		if span > 0 {
			delay += time.Duration(n.rng.Intn(int(span)))
		}
	}
	if n.cfg.DelayUnit > 0 && n.topo != nil {
		p := n.topo.Profile(class)
		units := p.MinDelay
		if p.MaxDelay > p.MinDelay {
			units += n.rng.Intn(p.MaxDelay - p.MinDelay + 1)
		}
		delay += time.Duration(units) * n.cfg.DelayUnit
	}
	return delay
}

// tryEnqueue places m in the endpoint's inbox. It reports whether the
// message was delivered, and — when it was not — whether the loss was an
// inbox overflow. Sends to a closed endpoint vanish without counting as
// drops (the process is gone, not the network).
func (ep *Endpoint) tryEnqueue(m proto.Message) (delivered, overflow bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return false, false
	}
	select {
	case ep.in <- m:
		return true, false
	default: // inbox full: drop, like a saturated socket buffer
		return false, true
	}
}

// enqueue places m in the endpoint's inbox, counting the outcome. Only
// called without n.mu held (the delayed-delivery timers).
func (ep *Endpoint) enqueue(m proto.Message, n *Network) {
	delivered, overflow := ep.tryEnqueue(m)
	n.mu.Lock()
	if delivered {
		n.stats.Received++
	} else if overflow {
		n.stats.Dropped++
	}
	n.mu.Unlock()
}

// Send implements Transport.
func (ep *Endpoint) Send(m proto.Message) error {
	if m.From == proto.NilProcess {
		m.From = ep.id
	}
	return ep.net.deliver(m)
}

// SendBatch implements Transport: the whole burst crosses the fabric under
// one lock acquisition.
func (ep *Endpoint) SendBatch(msgs []proto.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	for i := range msgs {
		if msgs[i].From == proto.NilProcess {
			msgs[i].From = ep.id
		}
	}
	return ep.net.deliverBatch(msgs)
}

// Serve implements Transport: it starts the endpoint's delivery goroutine,
// which drains the inbound queue in bursts — after one blocking receive,
// whatever else has queued, up to maxBurst messages — and hands each burst
// to h, until the endpoint closes. A second Serve panics.
func (ep *Endpoint) Serve(h func(msgs []proto.Message)) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.serving {
		panic("transport: endpoint served twice")
	}
	ep.serving = true
	ep.served.Add(1)
	go ep.deliver(h)
}

func (ep *Endpoint) deliver(h func(msgs []proto.Message)) {
	defer ep.served.Done()
	var burst []proto.Message
	for m := range ep.in {
		burst = append(burst[:0], m)
	drain:
		for len(burst) < maxBurst {
			select {
			case m, ok := <-ep.in:
				if !ok {
					break drain
				}
				burst = append(burst, m)
			default:
				break drain
			}
		}
		h(burst)
		// The burst is reused; its entries must not keep their senders'
		// gossip alive until the next burst overwrites them.
		clear(burst)
	}
}

// Recv returns the endpoint's inbound queue, for consumers that read it
// themselves instead of serving the endpoint. It is closed when the
// endpoint closes.
func (ep *Endpoint) Recv() <-chan proto.Message { return ep.in }

// Stats implements StatsProvider. The ledger is the fabric's — endpoints
// share one network, so a node mounted on an Endpoint observes the whole
// fabric's counters.
func (ep *Endpoint) Stats() Stats { return ep.net.Stats() }

// Network returns the fabric this endpoint is attached to — the handle the
// control plane uses for live fault injection.
func (ep *Endpoint) Network() *Network { return ep.net }

// Close implements Transport: it detaches the endpoint from the network and
// returns once the delivery goroutine, if Serve started one, has handed over
// what was queued and exited.
func (ep *Endpoint) Close() error {
	ep.net.mu.Lock()
	delete(ep.net.eps, ep.id)
	ep.net.mu.Unlock()
	ep.closeLocal()
	ep.served.Wait()
	return nil
}

func (ep *Endpoint) closeLocal() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if !ep.closed {
		ep.closed = true
		close(ep.in)
	}
}

// ID returns the endpoint's process id.
func (ep *Endpoint) ID() proto.ProcessID { return ep.id }

// ForeverMillis is the To bound of a partition that never heals on its
// own: cut until ClearPartitions.
const ForeverMillis = math.MaxUint64
