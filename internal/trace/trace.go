// Package trace provides lightweight, allocation-conscious observability
// for live lpbcast nodes: protocol events (gossip emission/reception,
// deliveries, retransmissions, membership changes) are recorded into
// pluggable sinks — a bounded ring for debugging, counters for metrics,
// or any combination.
//
// Tracing is strictly optional: nodes without a tracer pay nothing.
package trace

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/proto"
)

// Kind classifies a traced protocol event.
type Kind uint8

// Traced event kinds.
const (
	KindGossipSent Kind = iota + 1
	KindGossipReceived
	KindDeliver
	KindRetransmitRequest
	KindRetransmitServed
	KindJoinSent
	KindLeave
	KindViewChange
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindGossipSent:
		return "gossip-sent"
	case KindGossipReceived:
		return "gossip-received"
	case KindDeliver:
		return "deliver"
	case KindRetransmitRequest:
		return "retransmit-request"
	case KindRetransmitServed:
		return "retransmit-served"
	case KindJoinSent:
		return "join-sent"
	case KindLeave:
		return "leave"
	case KindViewChange:
		return "view-change"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one traced protocol occurrence.
type Event struct {
	// When is the local wall-clock time of the event.
	When time.Time
	// Kind classifies the event.
	Kind Kind
	// Node is the process recording the event.
	Node proto.ProcessID
	// Peer is the counterparty (gossip sender/target), when meaningful.
	Peer proto.ProcessID
	// EventID identifies the notification for delivery-related kinds.
	EventID proto.EventID
	// N carries a count (gossip targets, digest size, view size, ...).
	N int
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("%s %s node=%s peer=%s id=%s n=%d",
		e.When.Format("15:04:05.000"), e.Kind, e.Node, e.Peer, e.EventID, e.N)
}

// Tracer consumes events. Implementations must be safe for concurrent
// use.
type Tracer interface {
	Record(Event)
}

// Ring retains the most recent Cap events.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
}

// NewRing creates a ring retaining up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 256
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Record implements Tracer.
func (r *Ring) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
}

// Snapshot returns the retained events, oldest first.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Total returns how many events were ever recorded (including evicted).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dump writes the retained events to w, one per line.
func (r *Ring) Dump(w io.Writer) error {
	for _, e := range r.Snapshot() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}

// Counters tallies events per kind.
type Counters struct {
	mu     sync.Mutex
	counts map[Kind]uint64
}

// NewCounters creates an empty counter sink.
func NewCounters() *Counters {
	return &Counters{counts: make(map[Kind]uint64)}
}

// Record implements Tracer.
func (c *Counters) Record(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[e.Kind]++
}

// Count returns the tally for kind.
func (c *Counters) Count(kind Kind) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[kind]
}

// Multi fans events out to several tracers.
type Multi []Tracer

// Record implements Tracer.
func (m Multi) Record(e Event) {
	for _, t := range m {
		t.Record(e)
	}
}
