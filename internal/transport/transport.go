// Package transport provides the message transports the live lpbcast node
// runs over: an in-process network with injectable loss, latency and
// partitions (the substitution for the paper's LAN testbed of §5.2) and a
// real UDP transport built on the stdlib net package.
//
// Both carry internal/wire datagrams on one data path. SendBatch packs a
// burst per destination into datagrams (packBatch) and keeps no reference to
// a message once it returns; UDP writes them to its socket, the in-process
// network copies them onto the destination endpoint's bounded queue. One
// goroutine per socket or endpoint decodes each datagram, once, into the
// wire.Arena it keeps, calls the handler Serve was given and takes the arena
// back (serveDatagram). The messages and everything they reference are valid
// only until the handler returns; the handler may read them but neither write
// nor keep any of it (engines copy the events they retain). Recv is the same
// stream one copied message at a time, for tests and probes.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/proto"
	"repro/internal/wire"
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownPeer is returned when sending to a process with no known
// address.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// maxDatagram is the largest datagram the transports carry. Gossip messages
// at the paper's parameters encode well under 8 KiB (see the wire package's
// size test).
const maxDatagram = 64 * 1024

// sendBudget is the cost SendBatch lets one datagram reach (see
// wire.Packer.Budget): a datagram less headroom for the container header.
const sendBudget = maxDatagram - 16

// recvQueue is how many copied messages the Recv adapter holds for a
// consumer that has not taken them yet: a few datagrams' worth, for tests and
// probes that read as they go. A full channel loses the rest, counted in
// Dropped, as a socket's buffer would.
const recvQueue = 64

// Transport moves protocol messages between processes. Implementations are
// datagram-like: Send does not block on the receiver, delivery is not
// guaranteed, and messages may be dropped under load — exactly the fault
// model gossip protocols are designed for.
type Transport interface {
	// Send transmits m to m.To. It never blocks on the receiving process;
	// an unreachable or overloaded receiver loses the message silently
	// (after all, ε > 0 is part of the model).
	Send(m proto.Message) error
	// SendBatch transmits a burst of messages — typically one gossip
	// round's emissions plus any retransmission traffic — amortizing
	// per-message overhead: messages sharing a destination are packed into
	// container datagrams. Loss semantics match Send; on error the rest of
	// the burst is still attempted and the first error is returned.
	// SendBatch must not retain msgs or anything they reference: the node
	// overwrites its emissions once SendBatch returns.
	SendBatch(msgs []proto.Message) error
	// Serve starts delivery: the transport calls h with the messages of
	// every inbound datagram, one call at a time, on a goroutine it owns,
	// until it closes. msgs and everything they reference are valid only
	// until h returns. Until Serve, inbound traffic waits (or is lost)
	// where the transport keeps it; a transport is served once.
	Serve(h func(msgs []proto.Message))
	// Close releases resources and stops delivery.
	Close() error
}

// Stats is the common transport counter ledger. Both bundled transports
// report it — the in-process Network fabric-wide, the UDP transport
// per-socket — and the counters mean the same on both. All counters are
// cumulative.
type Stats struct {
	// Sent counts messages handed to the transport and accepted for
	// transmission: on UDP those written in a datagram, in the in-process
	// fabric every message of a burst, before its loss decisions.
	Sent uint64 `json:"sent"`
	// Received counts inbound messages handed to the consumer: the handler
	// Serve was given, or the Recv adapter.
	Received uint64 `json:"received"`
	// Dropped counts messages lost in the fabric or on the socket: loss
	// model, unknown destination, a message the codec refuses, a full
	// endpoint queue (in process; every message of the datagram), a full
	// Recv channel, or a failed write. A UDP node that falls behind backs up
	// into the kernel's receive queue instead, whose overflows are not
	// counted here.
	Dropped uint64 `json:"dropped"`
	// DroppedInPartition is the subset of losses caused by an injected
	// partition cutting the message's link class at send time.
	DroppedInPartition uint64 `json:"dropped_in_partition"`
	// DecodeErrs counts inbound datagrams that failed to decode.
	DecodeErrs uint64 `json:"decode_errs"`
	// Bytes counts the wire bytes of the datagrams in Datagrams.
	Bytes uint64 `json:"bytes"`
	// Datagrams counts datagrams sent: written to the socket (UDP) or handed
	// to the destination endpoint's queue, whether or not it had room (in
	// process).
	Datagrams uint64 `json:"datagrams"`
}

// StatsProvider is implemented by transports (and fabrics) that expose the
// common counter ledger.
type StatsProvider interface {
	Stats() Stats
}

// counters is the Stats ledger both transports keep. They are atomics, so
// senders, the delivery goroutine and Stats never wait on a lock for them.
type counters struct {
	sent, received, dropped, droppedInPartition atomic.Uint64
	decodeErrs, bytes, datagrams                atomic.Uint64
}

// Stats implements StatsProvider for both transports. It is lock-free and
// safe to poll from any goroutine at any rate.
func (c *counters) Stats() Stats {
	return Stats{
		Sent:               c.sent.Load(),
		Received:           c.received.Load(),
		Dropped:            c.dropped.Load(),
		DroppedInPartition: c.droppedInPartition.Load(),
		DecodeErrs:         c.decodeErrs.Load(),
		Bytes:              c.bytes.Load(),
		Datagrams:          c.datagrams.Load(),
	}
}

// packBatch is the send step of both transports. It packs a burst into
// datagrams with p one destination at a time — destinations in order of
// first appearance, each one's messages in burst order — and hands each
// datagram to send with where it goes and how many messages it carries; the
// datagram is valid only until send returns. dst[i] is where msgs[i] goes,
// the zero T for a message not to be sent, and packBatch zeroes every entry
// it packs. A message the codec refuses is dropped and counted in c; the
// first such error is returned.
func packBatch[T comparable](p *wire.Packer, c *counters, msgs []proto.Message, dst []T,
	send func(to T, datagram []byte, frames int)) error {
	var none T
	var refused error
	for i := range msgs {
		to, id := dst[i], msgs[i].To
		if to == none {
			continue // not to be sent, or packed with an earlier message
		}
		for j := i; j < len(msgs); j++ {
			if msgs[j].To != id || dst[j] == none {
				continue
			}
			dst[j] = none
			full, frames, err := p.Add(&msgs[j])
			if err != nil {
				c.dropped.Add(1)
				if refused == nil {
					refused = fmt.Errorf("transport: encode: %w", err)
				}
				continue
			}
			if full != nil {
				send(to, full, frames)
			}
		}
		if d, frames := p.Finish(); d != nil {
			send(to, d, frames)
		}
	}
	return refused
}

// serveDatagram is the receive step of both transports, run on the one
// goroutine that calls h: it decodes datagram into a, counts the messages and
// hands them to h, then takes the arena back, so that between datagrams it
// references nothing of the last one. An arena a large datagram grew past a
// datagram's own size is left to the collector. A datagram that fails to
// decode is counted and reaches no one.
func serveDatagram(a *wire.Arena, c *counters, datagram []byte, h func(msgs []proto.Message)) {
	msgs, err := a.DecodeBatch(datagram)
	if err != nil {
		c.decodeErrs.Add(1)
		return
	}
	c.received.Add(uint64(len(msgs)))
	h(msgs)
	a.Reset()
	if a.Size() > maxDatagram {
		*a = wire.Arena{}
	}
}

// handler is what Serve is given: it is called with the messages of each
// inbound datagram.
type handler = func(msgs []proto.Message)

// delivery is the consumer side both transports keep: the goroutine that
// calls the handler, started once by Serve or Recv, and the Recv adapter's
// channel. serving and recv are guarded by the transport's lock.
type delivery struct {
	serving bool
	recv    chan proto.Message
	done    sync.WaitGroup
}

// serve runs run(h) on a goroutine of its own, unless the transport is
// closed. A second call panics: a transport is served once, through Serve or
// through Recv.
func (d *delivery) serve(closed bool, run func(handler), h handler) {
	if d.serving {
		panic("transport: served twice")
	}
	d.serving = true
	if closed {
		return
	}
	d.done.Add(1)
	go func() {
		defer d.done.Done()
		run(h)
	}()
}

// recvAdapter returns the Recv adapter's channel, making it on the first
// call: the transport is served with a handler that deep-copies every
// message onto a channel of recvQueue, and a message that finds it full is
// dropped and counted in c. The delivery goroutine, the channel's only
// sender, closes it on its way out; on a closed transport it is closed at
// once.
func (d *delivery) recvAdapter(closed bool, c *counters, run func(handler)) <-chan proto.Message {
	if d.recv == nil {
		ch := make(chan proto.Message, recvQueue)
		d.recv = ch
		if closed {
			close(ch)
		}
		d.serve(closed, func(h handler) { run(h); close(ch) }, func(msgs []proto.Message) {
			for i := range msgs {
				select {
				case ch <- msgs[i].Clone():
				default:
					c.dropped.Add(1)
				}
			}
		})
	}
	return d.recv
}
