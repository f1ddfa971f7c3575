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

const (
	// inboxDatagrams is how many decoded datagrams wait for the consumer
	// before the reader drops, as a socket buffer would: at the paper's
	// fanout of 3 some forty gossip periods of a stalled consumer. A slot is
	// a pointer, but every waiting datagram holds its decoded storage, so
	// the depth is also the bound on what a stalled consumer lets the
	// network pin.
	inboxDatagrams = 128
	// freeBatches is how many released batches wait for the reader: what one
	// consumer keeps in flight when it keeps up. More would be kept warm for
	// a burst that happened once.
	freeBatches = 4
)

// Batch is one inbound datagram, decoded: its messages and the storage they
// reference. The reader owns a batch until it is received from RecvBatch;
// from then on the receiver does, until it calls Release, and may read Msgs
// and everything they point to but not write or keep any of it — what must
// outlive the batch is copied first, as the engines copy the events they
// retain.
type Batch struct {
	// Msgs are the datagram's messages in wire order.
	Msgs []proto.Message

	arena wire.Arena
	from  *UDP
	held  bool
}

// Release returns the batch to its transport, which decodes a later datagram
// into the same storage: Msgs is invalid from here on. Releasing a batch
// twice panics.
func (b *Batch) Release() {
	if !b.held {
		panic("transport: Batch released twice")
	}
	b.held = false
	b.Msgs = nil
	// Reset zeroes what it takes back, so a batch waiting on the free list
	// references nothing of its datagram. One that a large datagram grew
	// past a datagram's own size is left to the collector instead.
	b.arena.Reset()
	if b.arena.Size() > maxDatagram {
		return
	}
	select {
	case b.from.free <- b:
	default:
	}
}

// UDP is a Transport over a real UDP socket using the internal/wire codec.
// Peer addresses are registered explicitly (static directory) and learned
// automatically from inbound traffic, so one seed address suffices to
// join a running system.
//
// One reader goroutine decodes every datagram, once, into a recycled Batch.
// RecvBatch hands those over by pointer; Recv is the same stream one copied
// message at a time. A transport is consumed through one of the two.
//
// UDP is safe for concurrent use.
type UDP struct {
	id   proto.ProcessID
	conn *net.UDPConn
	in   chan *Batch // decoded datagrams, inboxDatagrams deep
	free chan *Batch // released batches, freeBatches deep
	done chan struct{}

	mu     sync.Mutex
	peers  map[proto.ProcessID]netip.AddrPort
	closed bool

	// sendMu guards the send scratch: senders encode one at a time, each
	// into the same buffer, and write before the next one starts.
	sendMu sync.Mutex
	addrs  []netip.AddrPort // SendBatch: the address of each message
	pack   wire.Packer

	pumpOnce sync.Once
	msgs     chan proto.Message
	readers  sync.WaitGroup

	// Stats counters are atomics, not mu-guarded: concurrent SendBatch
	// calls bump them once per message or datagram, and taking the
	// peer-table mutex for every increment both serialized high-rate
	// senders and stalled the read loop behind them.
	sent, received, dropped, decodeErrs atomic.Uint64
	bytes, datagrams                    atomic.Uint64
}

// NewUDP binds a UDP transport for process id at bindAddr (e.g.
// "127.0.0.1:0"). The reader goroutine runs until Close.
func NewUDP(id proto.ProcessID, bindAddr string) (*UDP, error) {
	addr, err := net.ResolveUDPAddr("udp", bindAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", bindAddr, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", bindAddr, err)
	}
	u := &UDP{
		id:    id,
		conn:  conn,
		in:    make(chan *Batch, inboxDatagrams),
		free:  make(chan *Batch, freeBatches),
		done:  make(chan struct{}),
		peers: make(map[proto.ProcessID]netip.AddrPort),
		pack:  wire.Packer{Budget: sendBudget},
	}
	u.readers.Add(1)
	go u.readLoop()
	return u, nil
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

// batch returns a released batch, or a new one.
func (u *UDP) batch() *Batch {
	select {
	case b := <-u.free:
		return b
	default:
		return &Batch{from: u}
	}
}

// readLoop decodes each datagram into a batch, learns sender addresses and
// queues the batch for the consumer. It never blocks on the consumer: a
// full inbox loses the datagram, like a socket buffer overflow.
func (u *UDP) readLoop() {
	defer u.readers.Done()
	defer close(u.in)
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
		b := u.batch()
		b.held = true
		if b.Msgs, err = b.arena.DecodeBatch(buf[:n]); err != nil {
			u.decodeErrs.Add(1)
			b.Release()
			continue
		}
		if !u.learn(b.Msgs, unmapped(from)) {
			return
		}
		count := uint64(len(b.Msgs)) // b is the consumer's once sent
		select {
		case u.in <- b:
			u.received.Add(count)
		default:
			u.dropped.Add(count)
			b.Release()
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

// RecvBatch returns the channel of inbound datagrams, each decoded into a
// Batch the receiver must Release. The channel is closed when the transport
// closes. Consumers that handle a datagram at a time (the node's run loop)
// read here and never pay for a message copy; see Recv for the other kind.
func (u *UDP) RecvBatch() <-chan *Batch { return u.in }

// Recv implements Transport for consumers that want one message at a time:
// the first call starts a pump that reads RecvBatch, forwards a deep copy of
// every message and releases the batch. The channel is unbuffered — what
// waits, waits as datagrams in the inbox, and the reader drops there.
func (u *UDP) Recv() <-chan proto.Message {
	u.pumpOnce.Do(func() {
		u.msgs = make(chan proto.Message)
		// Under mu, so that the Add is ordered before Close's Wait.
		u.mu.Lock()
		defer u.mu.Unlock()
		if u.closed {
			close(u.msgs)
			return
		}
		u.readers.Add(1)
		go u.pump()
	})
	return u.msgs
}

// pump runs until the reader closes the inbox or Close is called.
func (u *UDP) pump() {
	defer u.readers.Done()
	defer close(u.msgs)
	for b := range u.in {
		for i := range b.Msgs {
			select {
			case u.msgs <- b.Msgs[i].Clone():
			case <-u.done:
				b.Release()
				return
			}
		}
		b.Release()
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
	u.mu.Unlock()
	close(u.done)
	err := u.conn.Close()
	u.readers.Wait()
	return err
}
