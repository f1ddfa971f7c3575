package transport

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/wire"
)

// NetworkConfig shapes an in-process network. Topology and partitions are
// set while it runs (SetTopology, AddPartition).
type NetworkConfig struct {
	// Loss drops messages; nil means no loss. The model is consulted under
	// the fabric lock, so it needs no internal synchronization.
	Loss fault.LossModel
	// MinDelay/MaxDelay bound the uniformly distributed per-message
	// delivery latency. Zero values deliver immediately.
	MinDelay, MaxDelay time.Duration
	// Seed drives the latency randomness.
	Seed uint64
}

// inboxLen is how many datagrams an endpoint's queue holds for its delivery
// goroutine, as a socket's receive buffer would: a datagram that finds it
// full is dropped, and each of its messages counted in Dropped. Each queued
// datagram holds a buffer, so the depth bounds what a stalled consumer lets
// the fabric pin (about 40 gossip periods at fanout 3), as UDP's inbox did.
const inboxLen = 128

// Network is an in-process message fabric connecting Endpoints. It
// replaces the paper's physical testbed: one goroutine per process, a queue
// of wire datagrams per endpoint standing in for Fast Ethernet, with the
// simulator's fault abstractions — LossModel, Topology link classes,
// scheduled Partitions — injected at the fabric, mutable while the cluster
// runs (the control plane's fault-injection endpoints mutate them over
// HTTP).
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

	// The send scratch, guarded by mu: the endpoint each message of a burst
	// goes to, and the packer its datagrams are built in.
	dsts []*Endpoint
	pack wire.Packer

	// bufs recycles the datagram buffers the endpoints' queues carry:
	// senders fill them, delivery goroutines give them back.
	bufs   sync.Pool
	timers sync.WaitGroup

	counters // the fabric-wide ledger its Stats reports
}

// NewNetwork creates an empty network.
func NewNetwork(cfg NetworkConfig) *Network {
	return &Network{
		cfg:   cfg,
		start: time.Now(),
		rng:   rng.New(cfg.Seed),
		eps:   make(map[proto.ProcessID]*Endpoint),
		loss:  cfg.Loss,
		pack:  wire.Packer{Budget: sendBudget},
		bufs:  sync.Pool{New: func() any { return new([]byte) }},
	}
}

// Endpoint is one process's attachment to a Network. It is consumed either
// through Serve or through the channel Recv returns, never both.
type Endpoint struct {
	net *Network
	id  proto.ProcessID
	// in queues datagrams for the delivery goroutine. The fabric sends on it
	// under net.mu while the endpoint is attached, and stop closes it.
	in chan *[]byte

	mu     sync.Mutex
	closed bool
	d      delivery // the delivery goroutine, and the Recv adapter's channel
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
	ep := &Endpoint{net: n, id: id, in: make(chan *[]byte, inboxLen)}
	n.eps[id] = ep
	return ep, nil
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
	kept := n.parts[:0]
	for _, p := range n.parts {
		if partitionFits(p, t) {
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
	if !partitionFits(p, n.topo) {
		return fmt.Errorf("transport: partition %v references a link class the topology lacks", p)
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

// partitionFits reports whether every class the partition names exists in
// topology t (one class when t is nil).
func partitionFits(p fault.Partition, t fault.Topology) bool {
	classes := 1
	if t != nil {
		classes = t.Classes()
	}
	for _, c := range p.Classes {
		if c < 0 || int(c) >= classes {
			return false
		}
	}
	return true
}

// Close shuts the fabric down: delayed datagrams still in flight reach
// their endpoints, then every endpoint closes, its delivery goroutine, if
// any, handing over what was queued.
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
		ep.stop()
	}
	return nil
}

// deliverBatch routes a burst under one acquisition of the fabric lock. Each
// message in turn passes the fabric's filter — unknown destination,
// partition cut, loss — and then draws its delay; a delayed message leaves
// as a datagram of its own (sendLater), the rest are packed per destination
// (packBatch) and queued at once. Lock order is the caller's locks, then
// n.mu; no path holds n.mu while it calls a handler.
func (n *Network) deliverBatch(msgs []proto.Message) error {
	now := n.NowMillis()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	n.sent.Add(uint64(len(msgs)))
	var firstErr error
	dsts := n.dsts[:0]
	for i := range msgs {
		m := &msgs[i]
		dst := n.eps[m.To]
		if dst == nil {
			n.dropped.Add(1) // unknown peers lose messages silently, like UDP
		} else if fault.CutLink(n.parts, n.class(m), now) {
			n.dropped.Add(1)
			n.droppedInPartition.Add(1)
			dst = nil
		} else if n.loss != nil && n.loss.Drop(m.From, m.To, now) {
			n.dropped.Add(1)
			dst = nil
		} else if delay := n.drawDelay(); delay > 0 {
			if err := n.sendLater(dst, m, delay); err != nil && firstErr == nil {
				firstErr = err
			}
			dst = nil
		}
		dsts = append(dsts, dst)
	}
	n.dsts = dsts // packBatch leaves every entry nil: the scratch pins nothing
	if err := packBatch(&n.pack, &n.counters, msgs, dsts, n.enqueue); firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// class is the link class m travels on. Called with n.mu held.
func (n *Network) class(m *proto.Message) fault.LinkClass {
	if n.topo == nil {
		return fault.LinkLocal
	}
	return n.topo.Class(m.From, m.To)
}

// drawDelay picks a message's delivery latency, uniform in
// [MinDelay, MaxDelay). Called with n.mu held (it consumes the fabric RNG).
func (n *Network) drawDelay() time.Duration {
	if n.cfg.MaxDelay <= 0 {
		return 0
	}
	delay := n.cfg.MinDelay
	if span := n.cfg.MaxDelay - n.cfg.MinDelay; span > 0 {
		delay += time.Duration(n.rng.Intn(int(span)))
	}
	return delay
}

// enqueue copies datagram into a recycled buffer and queues it for ep.
// Called with n.mu held.
func (n *Network) enqueue(ep *Endpoint, datagram []byte, frames int) {
	b := n.bufs.Get().(*[]byte)
	*b = append((*b)[:0], datagram...)
	n.queue(ep, b, frames)
}

// sendLater encodes m as a datagram of its own and queues it for dst once
// delay has passed, if dst is still attached then; a datagram for an
// endpoint that has gone vanishes without counting as a drop (the process
// is gone, not the network). Called with n.mu held.
func (n *Network) sendLater(dst *Endpoint, m *proto.Message, delay time.Duration) error {
	b := n.bufs.Get().(*[]byte)
	d, err := wire.AppendEncode((*b)[:0], m)
	if err != nil {
		n.dropped.Add(1)
		n.recycle(b)
		return fmt.Errorf("transport: encode: %w", err)
	}
	*b = d
	n.timers.Add(1)
	time.AfterFunc(delay, func() {
		defer n.timers.Done()
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.eps[dst.id] != dst {
			n.recycle(b)
			return
		}
		n.queue(dst, b, 1)
	})
	return nil
}

// queue hands the datagram in b, of frames messages, to ep's delivery
// goroutine, or drops it when ep's queue is full. Called with n.mu held.
func (n *Network) queue(ep *Endpoint, b *[]byte, frames int) {
	n.datagrams.Add(1)
	n.bytes.Add(uint64(len(*b)))
	select {
	case ep.in <- b:
	default: // queue full: drop, like a saturated socket buffer
		n.dropped.Add(uint64(frames))
		n.recycle(b)
	}
}

// recycle gives a datagram buffer back, unless a large datagram grew it.
func (n *Network) recycle(b *[]byte) {
	if cap(*b) <= maxDatagram {
		n.bufs.Put(b)
	}
}

// Send implements Transport.
func (ep *Endpoint) Send(m proto.Message) error {
	msgs := [1]proto.Message{m}
	return ep.SendBatch(msgs[:])
}

// SendBatch implements Transport: the whole burst crosses the fabric under
// one lock acquisition, one datagram per destination (more for a burst past
// the datagram budget), and none of it is retained.
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
// which runs serveDatagram on every datagram queued for the endpoint, until
// the endpoint closes and its queue is empty. A second Serve, or Serve after
// Recv, panics.
func (ep *Endpoint) Serve(h func(msgs []proto.Message)) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.d.serve(ep.closed, ep.deliver, h)
}

// deliver is the delivery goroutine's loop.
func (ep *Endpoint) deliver(h func(msgs []proto.Message)) {
	var arena wire.Arena
	for b := range ep.in {
		serveDatagram(&arena, &ep.net.counters, *b, h)
		ep.net.recycle(b)
	}
}

// Recv serves the endpoint for consumers that want one message at a time
// (tests, probes), through the Recv adapter: a channel of deep copies, closed
// when the endpoint closes. Recv after Serve panics.
func (ep *Endpoint) Recv() <-chan proto.Message {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.d.recvAdapter(ep.closed, &ep.net.counters, ep.deliver)
}

// Stats implements StatsProvider. The ledger is the fabric's — endpoints
// share one network, so a node mounted on an Endpoint observes the whole
// fabric's counters.
func (ep *Endpoint) Stats() Stats { return ep.net.Stats() }

// Network returns the fabric this endpoint is attached to — the handle the
// control plane uses for live fault injection.
func (ep *Endpoint) Network() *Network { return ep.net }

// Close implements Transport: it detaches the endpoint from the network and
// returns once the delivery goroutine, if one was started, has handed over
// what was queued and exited.
func (ep *Endpoint) Close() error {
	ep.net.mu.Lock()
	if ep.net.eps[ep.id] == ep {
		delete(ep.net.eps, ep.id)
	}
	ep.net.mu.Unlock()
	ep.stop()
	return nil
}

// stop closes the endpoint's queue, once the fabric no longer sends on it,
// and waits for the delivery goroutine.
func (ep *Endpoint) stop() {
	ep.mu.Lock()
	if !ep.closed {
		ep.closed = true
		close(ep.in)
	}
	ep.mu.Unlock()
	ep.d.done.Wait()
}

// ForeverMillis is the To bound of a partition that never heals on its
// own: cut until ClearPartitions.
const ForeverMillis = math.MaxUint64
