package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"repro/internal/proto"
	"repro/internal/wire"
)

// UDP is a Transport over a real UDP socket using the internal/wire codec.
// Peer addresses are registered explicitly (static directory) and learned
// automatically from inbound traffic, so one seed address suffices to
// join a running system.
//
// Serve starts the one reader goroutine, which decodes every datagram, once,
// into the transport's arena and calls the handler with its messages
// (serveDatagram); Recv is the same stream one copied message at a time.
// Until one of the two is called no reader runs and datagrams wait in the
// kernel's socket buffer.
//
// UDP is safe for concurrent use. A handler may send on its own transport:
// the lock order is the caller's locks, then sendMu, then mu, and the reader
// holds none of them while it calls the handler.
type UDP struct {
	id   proto.ProcessID
	conn *net.UDPConn

	mu     sync.Mutex
	peers  map[proto.ProcessID]netip.AddrPort
	closed bool
	d      delivery // the reader, and the Recv adapter's channel

	// sendMu guards the send scratch: senders encode one at a time, each
	// into the same buffer, and write before the next one starts.
	sendMu sync.Mutex
	addrs  []netip.AddrPort // SendBatch: the address of each message
	pack   wire.Packer

	// arena is the storage the reader decodes every datagram into, touched
	// by the reader goroutine alone.
	arena wire.Arena

	// The counters, whose Stats the transport reports, are atomics, not
	// mu-guarded: concurrent SendBatch calls bump them once per message or
	// datagram, and taking the peer-table mutex for every increment both
	// serialized high-rate senders and stalled the read loop behind them.
	counters
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
	u.d.serve(u.closed, u.read, h)
}

// read reads datagram after datagram into a buffer of its own and runs
// serveDatagram on each, learning the sender's address before h sees the
// messages.
func (u *UDP) read(h func(msgs []proto.Message)) {
	// Constant-sized and kept out of every call that would retain it, so
	// the buffer lives on this goroutine's stack, not in the heap.
	buf := make([]byte, maxDatagram)
	var from netip.AddrPort
	learned := func(msgs []proto.Message) {
		u.learn(msgs, from)
		h(msgs)
	}
	for {
		n, addr, err := u.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			u.mu.Lock()
			closed := u.closed
			u.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			continue // transient read error: keep serving
		}
		from = unmapped(addr)
		serveDatagram(&u.arena, &u.counters, buf[:n], learned)
	}
}

// learn records from as the address of every process msgs came from, writing
// only the entries that change.
func (u *UDP) learn(msgs []proto.Message, from netip.AddrPort) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for i := range msgs {
		if p := msgs[i].From; p != proto.NilProcess && u.peers[p] != from {
			u.peers[p] = from
		}
	}
}

// Send implements Transport.
func (u *UDP) Send(m proto.Message) error {
	msgs := [1]proto.Message{m}
	return u.SendBatch(msgs[:])
}

// SendBatch implements Transport: messages sharing a destination are
// packed into container datagrams (up to the datagram size budget), so a
// burst costs one syscall per destination rather than one per message
// (packBatch). Unknown peers and write failures lose their messages; the
// first error is returned after the rest of the burst has been attempted.
func (u *UDP) SendBatch(msgs []proto.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	var firstErr error
	u.sendMu.Lock()
	defer u.sendMu.Unlock()

	// Resolve every destination under one acquisition of the peer table's
	// lock, which the receive path needs per datagram; encoding and writing
	// happen outside it. An unknown peer resolves to the zero AddrPort and
	// loses its message.
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
		if !addrs[i].IsValid() {
			u.dropped.Add(1)
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: %v", ErrUnknownPeer, msgs[i].To)
			}
		}
	}
	u.mu.Unlock()
	u.addrs = addrs

	err := packBatch(&u.pack, &u.counters, msgs, addrs, func(addr netip.AddrPort, datagram []byte, frames int) {
		if _, err := u.conn.WriteToUDPAddrPort(datagram, addr); err != nil {
			u.dropped.Add(uint64(frames))
			if firstErr == nil {
				firstErr = fmt.Errorf("transport: send to %v: %w", addr, err)
			}
			return
		}
		u.sent.Add(uint64(frames))
		u.datagrams.Add(1)
		u.bytes.Add(uint64(len(datagram)))
	})
	if firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Recv serves the transport for consumers that want one message at a time
// (tests, probes), through the Recv adapter: a channel of deep copies, closed
// when the transport closes. Recv after Serve panics.
func (u *UDP) Recv() <-chan proto.Message {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.d.recvAdapter(u.closed, &u.counters, u.read)
}

// Close implements Transport.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	u.mu.Unlock()
	err := u.conn.Close()
	u.d.done.Wait()
	return err
}
