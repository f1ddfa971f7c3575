// Package transport provides the message transports the live lpbcast node
// runs over: an in-process network with injectable loss and latency (the
// substitution for the paper's two LANs of 125 workstations — see
// DESIGN.md §3) and a real UDP transport built on the stdlib net package
// and the internal/wire codec.
//
// On UDP the datagram is the unit, with one owner at a time. The
// transport's reader goroutine decodes each datagram once into a recycled
// *Batch — its messages and the wire.Arena they live in — and owns it until
// the pointer is sent on RecvBatch; the receiver owns it from there until
// Batch.Release, and may read it but neither write it nor keep anything of
// it (engines copy the events they retain). Recv is the same stream for
// consumers that want one message at a time, deep-copied by a pump that the
// first call starts. Sends encode into one buffer the transport keeps,
// under a send mutex, and write once per destination. The node's run loop
// remains the only goroutine that touches its engine: that is what makes
// the emission reuse a Serializer permits safe.
package transport

import (
	"errors"

	"repro/internal/proto"
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownPeer is returned when sending to a process with no known
// address.
var ErrUnknownPeer = errors.New("transport: unknown peer")

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
	// per-message overhead: the in-process network routes the whole burst
	// under one lock acquisition, and the UDP transport packs messages
	// sharing a destination into container datagrams. Loss semantics match
	// Send; on error the rest of the burst is still attempted and the
	// first error is returned. SendBatch must not retain msgs.
	SendBatch(msgs []proto.Message) error
	// Recv returns the channel of inbound messages. The channel is closed
	// when the transport closes. Run loops drain it in bursts: after a
	// blocking receive, non-blocking reads empty whatever else has queued
	// before the protocol reacts once for the whole burst. A transport may
	// also offer whole datagrams (UDP.RecvBatch), which the node prefers.
	Recv() <-chan proto.Message
	// Close releases resources and closes the Recv channel.
	Close() error
}

// Stats is the common transport counter ledger. Both bundled transports
// report it — the in-process Network fabric-wide, the UDP transport
// per-socket — so the control plane reads one shape regardless of which
// transport a node runs over. All counters are cumulative.
type Stats struct {
	// Sent counts messages handed to the transport and accepted for
	// transmission (before any loss decision).
	Sent uint64 `json:"sent"`
	// Received counts messages delivered into an inbound queue.
	Received uint64 `json:"received"`
	// Dropped counts messages lost in the fabric or on the socket: loss
	// model, full inbound queue, or unknown destination.
	Dropped uint64 `json:"dropped"`
	// DroppedInPartition is the subset of losses caused by an injected
	// partition cutting the message's link class at send time.
	DroppedInPartition uint64 `json:"dropped_in_partition"`
	// DecodeErrs counts inbound datagrams that failed to decode
	// (serializing transports only).
	DecodeErrs uint64 `json:"decode_errs"`
	// Bytes counts wire bytes transmitted (serializing transports only;
	// the in-process fabric moves messages by reference).
	Bytes uint64 `json:"bytes"`
	// Datagrams counts fabric crossings: datagrams written by the UDP
	// transport, batch deliveries routed by the in-process network.
	Datagrams uint64 `json:"datagrams"`
}

// StatsProvider is implemented by transports (and fabrics) that expose the
// common counter ledger.
type StatsProvider interface {
	Stats() Stats
}

// Serializer marks transports whose Send/SendBatch fully serialize or
// otherwise consume every message before returning, so callers — and
// protocol engines in emission-reuse mode — may recycle message buffers
// immediately after the call. The UDP transport qualifies (datagrams are
// encoded synchronously); the in-process network does not (it shares
// gossip pointers with receiver queues).
type Serializer interface {
	SerializesOnSend()
}
