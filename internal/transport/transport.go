// Package transport provides the message transports the live lpbcast node
// runs over: an in-process network with injectable loss and latency (the
// substitution for the paper's two LANs of 125 workstations — see
// DESIGN.md §3) and a real UDP transport built on the stdlib net package
// and the internal/wire codec.
//
// A transport calls its consumer: Serve hands every inbound datagram (on UDP)
// or burst (in process) to a handler, one call at a time, on a goroutine the
// transport owns. The messages and everything they reference belong to the
// transport and are valid only until the handler returns; the handler may
// read them but neither write nor keep any of it (engines copy the events
// they retain). On UDP the reader decodes each datagram once into the one
// wire.Arena it keeps and resets it after the handler returns, so nothing is
// queued and nothing is copied between the socket and the node. Sends encode
// into one buffer the transport keeps, under a send mutex, and write once per
// destination.
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
	// Serve starts delivery: the transport calls h with the messages of
	// every inbound datagram or burst, one call at a time, on a goroutine it
	// owns, until it closes. msgs and everything they reference are valid
	// only until h returns. Until Serve, inbound traffic waits (or is lost)
	// where the transport keeps it; a transport is served once.
	Serve(h func(msgs []proto.Message))
	// Close releases resources and stops delivery.
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
	// Received counts inbound messages: on UDP those handed to the handler
	// (Serve, or the Recv adapter), in the in-process fabric those queued
	// for the destination endpoint.
	Received uint64 `json:"received"`
	// Dropped counts messages lost in the fabric or on the socket: loss
	// model, a full endpoint queue (in process) or Recv channel (UDP),
	// unknown destination, or a failed write. A UDP node that falls behind
	// backs up into the kernel's receive queue instead, whose overflows are
	// not counted here.
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
