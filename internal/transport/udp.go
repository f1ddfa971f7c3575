package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"repro/internal/proto"
	"repro/internal/wire"
)

// maxDatagram is the largest datagram the UDP transport reads. Gossip
// messages at the paper's parameters encode well under 8 KiB (see the wire
// package's size test).
const maxDatagram = 64 * 1024

// sendBudget is the cost SendBatch lets one datagram reach (see
// wire.Packer.Budget): a datagram less headroom for the container header.
const sendBudget = maxDatagram - 16

// recvQueue is how many copied messages the Recv adapter holds for a
// consumer that has not taken them yet: a few datagrams' worth, for tests and
// probes that read as they go. A full channel loses the rest, counted in
// Dropped, as the kernel's buffer would.
const recvQueue = 64

// UDP is a Transport over a real UDP socket using the internal/wire codec.
// Peer addresses are registered explicitly (static directory) and learned
// automatically from inbound traffic, so one seed address suffices to
// join a running system.
//
// Serve starts the one reader goroutine, which decodes every datagram, once,
// into the transport's arena and calls the handler with its messages; Recv is
// the same stream one copied message at a time. Until one of the two is
// called no reader runs and datagrams wait in the kernel's socket buffer.
//
// UDP is safe for concurrent use. A handler may send on its own transport:
// the lock order is the caller's locks, then sendMu, then mu, and the reader
// holds none of them while it calls the handler.
type UDP struct {
	id   proto.ProcessID
	conn *net.UDPConn

	mu      sync.Mutex
	peers   map[proto.ProcessID]netip.AddrPort
	closed  bool
	serving bool
	msgs    chan proto.Message // the Recv adapter's channel, once Recv is called

	// sendMu guards the send scratch: senders encode one at a time, each
	// into the same buffer, and write before the next one starts.
	sendMu sync.Mutex
	addrs  []netip.AddrPort // SendBatch: the address of each message
	pack   wire.Packer

	// arena is the storage the reader decodes every datagram into, touched
	// by the reader goroutine alone.
	arena  wire.Arena
	reader sync.WaitGroup

	// Stats counters are atomics, not mu-guarded: concurrent SendBatch
	// calls bump them once per message or datagram, and taking the
	// peer-table mutex for every increment both serialized high-rate
	// senders and stalled the read loop behind them.
	sent, received, dropped, decodeErrs atomic.Uint64
	bytes, datagrams                    atomic.Uint64
}

// NewUDP binds a UDP transport for process id at bindAddr (e.g.
// "127.0.0.1:0"). It reads nothing until Serve or Recv.
func NewUDP(id proto.ProcessID, bindAddr string) (*UDP, error) {
	addr, err := net.ResolveUDPAddr("udp", bindAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", bindAddr, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", bindAddr, err)
	}
	return &UDP{
		id:    id,
		conn:  conn,
		peers: make(map[proto.ProcessID]netip.AddrPort),
		pack:  wire.Packer{Budget: sendBudget},
	}, nil
}

// LocalAddr returns the bound address (useful with port 0).
func (u *UDP) LocalAddr() string { return u.conn.LocalAddr().String() }

// SerializesOnSend marks UDP as a Serializer: Send and SendBatch encode
// every message into datagrams before returning.
func (u *UDP) SerializesOnSend() {}

// unmapped is ap with an IPv4-mapped IPv6 address as plain IPv4: the one
// form both socket families accept to write to, and the form addresses are
// compared in.
func unmapped(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// AddPeer registers the address of process p.
func (u *UDP) AddPeer(p proto.ProcessID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: resolve peer %q: %w", addr, err)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return ErrClosed
	}
	u.peers[p] = unmapped(ua.AddrPort())
	return nil
}

// Serve implements Transport: it starts the reader, which calls h with the
// messages of every datagram that decodes, in wire order, until Close. A
// transport is served once: a second Serve, or Serve after Recv, panics.
// Serve on a closed transport starts nothing.
func (u *UDP) Serve(h func(msgs []proto.Message)) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.serveLocked(h)
}

// serveLocked starts the reader, under mu so that the reader's Add is ordered
// before Close's Wait.
func (u *UDP) serveLocked(h func(msgs []proto.Message)) {
	if u.serving {
		panic("transport: UDP served twice")
	}
	u.serving = true
	if u.closed {
		return
	}
	u.reader.Add(1)
	go u.read(h)
}

// read decodes each datagram into the arena, learns the sender's address,
// counts the messages and hands them to h; once h returns the arena is taken
// back for the next datagram. A datagram that fails to decode is counted and
// skipped.
func (u *UDP) read(h func(msgs []proto.Message)) {
	defer u.reader.Done()
	// Constant-sized and kept out of every call that would retain it, so
	// the buffer lives on this goroutine's stack, not in the heap.
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := u.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			u.mu.Lock()
			closed := u.closed
			u.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			continue // transient read error: keep serving
		}
		msgs, err := u.arena.DecodeBatch(buf[:n])
		if err != nil {
			u.decodeErrs.Add(1)
			continue
		}
		if !u.learn(msgs, unmapped(from)) {
			return
		}
		u.received.Add(uint64(len(msgs)))
		h(msgs)
		// Reset zeroes what the arena handed out, so between datagrams it
		// references nothing of the last one. An arena a large datagram grew
		// past a datagram's own size is left to the collector.
		u.arena.Reset()
		if u.arena.Size() > maxDatagram {
			u.arena = wire.Arena{}
		}
	}
}

// learn records from as the address of every process msgs came from, writing
// only the entries that change. It reports false once the transport closed.
func (u *UDP) learn(msgs []proto.Message, from netip.AddrPort) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return false
	}
	for i := range msgs {
		if p := msgs[i].From; p != proto.NilProcess && u.peers[p] != from {
			u.peers[p] = from
		}
	}
	return true
}

// Send implements Transport.
func (u *UDP) Send(m proto.Message) error {
	msgs := [1]proto.Message{m}
	return u.SendBatch(msgs[:])
}

// SendBatch implements Transport: messages sharing a destination are
// packed into container datagrams (up to the datagram size budget), so a
// burst costs one syscall per destination rather than one per message.
// Destinations are served in order of first appearance, each one's messages
// in burst order, encoded straight into the transport's send buffer.
// Unknown peers and write failures lose their messages; the first error is
// returned after the rest of the burst has been attempted.
func (u *UDP) SendBatch(msgs []proto.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	u.sendMu.Lock()
	defer u.sendMu.Unlock()

	// Resolve every destination under one acquisition of the peer table's
	// lock, which the receive path needs per datagram; encoding and writing
	// happen outside it. An unknown peer resolves to the zero AddrPort.
	addrs := u.addrs[:0]
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return ErrClosed
	}
	for i := range msgs {
		if msgs[i].From == proto.NilProcess {
			msgs[i].From = u.id
		}
		addrs = append(addrs, u.peers[msgs[i].To])
	}
	u.mu.Unlock()
	u.addrs = addrs
	for i := range msgs {
		if !addrs[i].IsValid() {
			u.dropped.Add(1)
			fail(fmt.Errorf("%w: %v", ErrUnknownPeer, msgs[i].To))
		}
	}

	for i := range msgs {
		addr, to := addrs[i], msgs[i].To
		if !addr.IsValid() {
			continue // unknown, or sent with an earlier message's destination
		}
		write := func(datagram []byte, frames int) {
			if datagram == nil {
				return
			}
			if _, err := u.conn.WriteToUDPAddrPort(datagram, addr); err != nil {
				u.dropped.Add(uint64(frames))
				fail(fmt.Errorf("transport: send to %v: %w", to, err))
				return
			}
			u.sent.Add(uint64(frames))
			u.datagrams.Add(1)
			u.bytes.Add(uint64(len(datagram)))
		}
		for j := i; j < len(msgs); j++ {
			if msgs[j].To != to {
				continue
			}
			addrs[j] = netip.AddrPort{}
			full, frames, err := u.pack.Add(&msgs[j])
			if err != nil {
				u.dropped.Add(1)
				fail(fmt.Errorf("transport: encode: %w", err))
				continue
			}
			write(full, frames)
		}
		write(u.pack.Finish())
	}
	return firstErr
}

// Recv serves the transport for consumers that want one message at a time
// (tests, probes): the first call starts the reader with a handler that
// deep-copies every message onto a channel of recvQueue. A message that finds
// the channel full is dropped and counted in Dropped. The channel is closed
// when the transport closes. Recv after Serve panics.
func (u *UDP) Recv() <-chan proto.Message {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.msgs == nil {
		u.msgs = make(chan proto.Message, recvQueue)
		if u.closed {
			close(u.msgs)
		} else {
			u.serveLocked(u.forward)
		}
	}
	return u.msgs
}

// forward is the Recv adapter's handler.
func (u *UDP) forward(msgs []proto.Message) {
	for i := range msgs {
		select {
		case u.msgs <- msgs[i].Clone():
		default:
			u.dropped.Add(1)
		}
	}
}

// Stats implements StatsProvider: messages sent/received/dropped, decode
// failures, and wire bytes/datagrams written. It is lock-free and safe to
// poll from any goroutine at any rate.
func (u *UDP) Stats() Stats {
	return Stats{
		Sent:       u.sent.Load(),
		Received:   u.received.Load(),
		Dropped:    u.dropped.Load(),
		DecodeErrs: u.decodeErrs.Load(),
		Bytes:      u.bytes.Load(),
		Datagrams:  u.datagrams.Load(),
	}
}

// Close implements Transport.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	msgs := u.msgs
	u.mu.Unlock()
	err := u.conn.Close()
	u.reader.Wait()
	if msgs != nil {
		close(msgs) // the reader, its only sender, is gone
	}
	return err
}
