// Package wire encodes protocol messages into a compact, versioned binary
// format suitable for UDP datagrams, using only the standard library
// (encoding/binary varints). The single-message format is:
//
//	magic byte 'L' | version 1 | kind | from | to | kind-specific body
//
// The batch container format (version 2) packs several single-message
// frames into one datagram, so a burst of messages to the same destination
// costs one syscall:
//
//	magic byte 'L' | version 2 | count | (frame length | frame bytes)*
//
// where every inner frame is a complete version-1 message. Single messages
// keep the version-1 frame on the wire, so batch-capable senders remain
// readable by version-1-only receivers until a burst actually forms.
//
// All integers are unsigned varints. Decoding is defensive: every count is
// checked against its limit and against the bytes the datagram has left
// before storage is taken, so what a datagram can make a decode allocate is
// proportional to its own length, and all errors are reported rather than
// panicking.
//
// There is one encoder and one decoder. AppendEncode appends a frame to the
// caller's buffer and a Packer builds a datagram in a buffer it keeps, so a
// sender that holds one allocates nothing; Arena.DecodeBatch cuts every
// list, payload and Gossip of a datagram from storage the Arena keeps, so a
// receiver that recycles one allocates nothing either. Encode and Decode
// are those two for one frame, with fresh storage.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/proto"
)

const (
	magic        byte = 'L'
	version      byte = 1
	versionBatch byte = 2
)

// Decode limits: a datagram announcing more than these counts is rejected
// outright. They are far above anything the protocol produces.
const (
	maxListLen    = 1 << 16
	maxPayloadLen = 1 << 20
	// MaxBatchLen bounds the number of messages one container frame may
	// carry.
	MaxBatchLen = 1 << 12
)

// ErrTruncated is returned when a message ends before its announced
// content.
var ErrTruncated = errors.New("wire: truncated message")

// ErrWideID is returned for a process id or sequence number past 2^32-1.
var ErrWideID = errors.New("wire: id past 2^32-1")

// ErrBadMagic is returned for messages not starting with the magic byte.
var ErrBadMagic = errors.New("wire: bad magic byte")

// ErrBadVersion is returned for unsupported format versions.
var ErrBadVersion = errors.New("wire: unsupported version")

// The fewest bytes one element of each list takes on the wire. A count is
// refused as truncated when the bytes left could not hold that many.
const (
	minPIDLen   = 1 // one varint
	minHopLen   = 1
	minIDLen    = 2 // origin, seq
	minUnsubLen = 2 // process, stamp
	minEventLen = 3 // origin, seq, payload length
	minFrameLen = 6 // magic, version, kind, from, to and one byte of body
)

func appendPID(dst []byte, p proto.ProcessID) []byte {
	return binary.AppendUvarint(dst, uint64(p))
}

func appendEventID(dst []byte, id proto.EventID) []byte {
	return binary.AppendUvarint(appendPID(dst, id.Origin), uint64(id.Seq))
}

func appendEvents(dst []byte, evs []proto.Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	for i := range evs {
		dst = appendEventID(dst, evs[i].ID)
		dst = binary.AppendUvarint(dst, uint64(len(evs[i].Payload)))
		dst = append(dst, evs[i].Payload...)
	}
	return dst
}

func appendIDList(dst []byte, ids []proto.EventID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = appendEventID(dst, id)
	}
	return dst
}

// AppendEncode appends m's version-1 frame to dst and returns the extended
// buffer. On error dst comes back at its original length.
func AppendEncode(dst []byte, m *proto.Message) ([]byte, error) {
	at := len(dst)
	dst = append(dst, magic, version, byte(m.Kind))
	dst = appendPID(dst, m.From)
	dst = appendPID(dst, m.To)
	switch m.Kind {
	case proto.GossipMsg:
		if m.Gossip == nil {
			return dst[:at], errors.New("wire: gossip message without gossip body")
		}
		g := m.Gossip
		dst = appendPID(dst, g.From)
		dst = binary.AppendUvarint(dst, uint64(len(g.Subs)))
		for _, p := range g.Subs {
			dst = appendPID(dst, p)
		}
		dst = binary.AppendUvarint(dst, uint64(len(g.Unsubs)))
		for _, u := range g.Unsubs {
			dst = binary.AppendUvarint(appendPID(dst, u.Process), u.Stamp)
		}
		dst = appendEvents(dst, g.Events)
		dst = appendIDList(dst, g.Digest)
		dst = appendIDList(dst, g.DigestWatermarks)
	case proto.SubscribeMsg:
		dst = appendPID(dst, m.Subscriber)
	case proto.RetransmitRequestMsg:
		dst = appendIDList(dst, m.Request)
	case proto.RetransmitReplyMsg:
		dst = appendEvents(dst, m.Reply)
		dst = binary.AppendUvarint(dst, uint64(len(m.ReplyHops)))
		for _, h := range m.ReplyHops {
			dst = binary.AppendUvarint(dst, uint64(h))
		}
	default:
		return dst[:at], fmt.Errorf("wire: cannot encode message kind %v", m.Kind)
	}
	return dst, nil
}

// Encode serializes m.
func Encode(m proto.Message) ([]byte, error) {
	return AppendEncode(make([]byte, 0, 256), &m)
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

const (
	// headerRoom is what a Packer keeps free ahead of a datagram's frames:
	// magic, version, and a count of at most MaxBatchLen (two bytes).
	headerRoom = 2 + 2
	// frameLenRoom is what appendFrame keeps free ahead of a frame for its
	// length: what a frame of 128 to 16 383 bytes needs.
	frameLenRoom = 2
)

// appendFrame appends m to dst as one frame of a container — the frame's
// length, then the bytes AppendEncode writes — and returns where those bytes
// start. The frame is encoded in place behind frameLenRoom bytes and moved
// by the difference when its length turns out to need fewer or more. On
// error dst comes back at its original length.
func appendFrame(dst []byte, m *proto.Message) ([]byte, int, error) {
	at := len(dst)
	var room [frameLenRoom]byte
	dst, err := AppendEncode(append(dst, room[:]...), m)
	if err != nil {
		return dst[:at], 0, err
	}
	n := len(dst) - at - frameLenRoom
	w := uvarintLen(uint64(n))
	if w != frameLenRoom {
		for len(dst) < at+w+n {
			dst = append(dst, 0)
		}
		copy(dst[at+w:], dst[at+frameLenRoom:at+frameLenRoom+n])
		dst = dst[:at+w+n]
	}
	binary.PutUvarint(dst[at:], uint64(n))
	return dst, at + w, nil
}

// Packer builds the datagrams of one destination's burst in a buffer it
// keeps: frames are encoded in place, one behind the other, and a
// datagram's header is written into the room ahead of its first frame once
// the number of frames is known. A datagram of one frame is that frame
// alone, without header or length (the compatibility rule of EncodeBatch).
//
// A datagram closes when the next frame would take it past Budget or past
// MaxBatchLen frames; the frame that did not fit opens the next one, whose
// header will overwrite the closed datagram's last bytes — so a datagram
// Add or Finish returns is valid until the next call and no longer.
//
// The zero value with a Budget is ready to use.
type Packer struct {
	// Budget bounds a datagram's cost, where a frame costs its length plus
	// binary.MaxVarintLen32. A frame that alone exceeds it still travels,
	// in a datagram of its own.
	Budget int

	buf   []byte
	base  int // the open datagram's header room starts here
	first int // where its first frame's own bytes start, past their length
	n     int // frames in it
	cost  int // their cost
}

// Add encodes m as the next frame. When the frame does not fit the open
// datagram, Add closes that one and returns it with its number of frames;
// otherwise it returns nil. On error nothing was added.
func (p *Packer) Add(m *proto.Message) (full []byte, frames int, err error) {
	if len(p.buf) == 0 {
		var room [headerRoom]byte
		p.buf = append(p.buf, room[:]...)
	}
	at := len(p.buf)
	buf, body, err := appendFrame(p.buf, m)
	if err != nil {
		return nil, 0, err
	}
	p.buf = buf
	cost := len(buf) - body + binary.MaxVarintLen32
	if p.n > 0 && (p.cost+cost > p.Budget || p.n >= MaxBatchLen) {
		full, frames = p.datagram(at), p.n
		p.base, p.n, p.cost = at-headerRoom, 0, 0
	}
	if p.n == 0 {
		p.first = body
	}
	p.n++
	p.cost += cost
	return full, frames, nil
}

// Finish closes the open datagram and returns it with its number of frames,
// or nil when there is none. The Packer is then empty; a buffer that grew
// past twice the budget (a burst of several datagrams) is not kept.
func (p *Packer) Finish() ([]byte, int) {
	var d []byte
	n := p.n
	if n > 0 {
		d = p.datagram(len(p.buf))
	}
	p.buf = p.buf[:0]
	if cap(p.buf)/2 > p.Budget {
		p.buf = nil
	}
	p.base, p.n, p.cost = 0, 0, 0
	return d, n
}

// datagram returns the open datagram, whose frames end at end.
func (p *Packer) datagram(end int) []byte {
	if p.n == 1 {
		return p.buf[p.first:end]
	}
	h := p.base + headerRoom - 2 - uvarintLen(uint64(p.n))
	p.buf[h], p.buf[h+1] = magic, versionBatch
	binary.PutUvarint(p.buf[h+2:], uint64(p.n))
	return p.buf[h:end]
}

// decoder reads one frame or container. Its lists come from mem, or from
// the heap when mem is nil.
type decoder struct {
	buf []byte
	off int
	mem *Arena
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, ErrTruncated
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.off += n
	return v, nil
}

// count reads the length of a list whose elements take at least width
// bytes each: one above limit is refused, and so is one the bytes left
// cannot hold, before the caller takes storage for it.
func (d *decoder) count(limit, width int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) {
		return 0, fmt.Errorf("wire: count %d exceeds limit %d", v, limit)
	}
	if v > uint64((len(d.buf)-d.off)/width) {
		return 0, ErrTruncated
	}
	return int(v), nil
}

// u32 reads a process id or a sequence number: a value past 2^32-1 is
// refused, for no id can hold it.
func (d *decoder) u32() (uint32, error) {
	v, err := d.uvarint()
	if err == nil && v > math.MaxUint32 {
		return 0, ErrWideID
	}
	return uint32(v), err
}

func (d *decoder) pid() (proto.ProcessID, error) {
	v, err := d.u32()
	return proto.ProcessID(v), err
}

func (d *decoder) eventID() (proto.EventID, error) {
	origin, err := d.pid()
	if err != nil {
		return proto.EventID{}, err
	}
	seq, err := d.u32()
	if err != nil {
		return proto.EventID{}, err
	}
	return proto.EventID{Origin: origin, Seq: seq}, nil
}

func (d *decoder) events() ([]proto.Event, error) {
	n, err := d.count(maxListLen, minEventLen)
	if err != nil || n == 0 {
		return nil, err
	}
	out := d.mem.eventList(n)
	for i := range out {
		if out[i].ID, err = d.eventID(); err != nil {
			return nil, err
		}
		size, err := d.count(maxPayloadLen, 1)
		if err != nil {
			return nil, err
		}
		out[i].Payload = nil
		if size > 0 {
			out[i].Payload = d.mem.byteList(size)
			copy(out[i].Payload, d.buf[d.off:])
			d.off += size
		}
	}
	return out, nil
}

func (d *decoder) idList() ([]proto.EventID, error) {
	n, err := d.count(maxListLen, minIDLen)
	if err != nil || n == 0 {
		return nil, err
	}
	out := d.mem.idList(n)
	for i := range out {
		if out[i], err = d.eventID(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (d *decoder) gossip(g *proto.Gossip) (err error) {
	if g.From, err = d.pid(); err != nil {
		return err
	}
	n, err := d.count(maxListLen, minPIDLen)
	if err != nil {
		return err
	}
	if n > 0 {
		g.Subs = d.mem.pidList(n)
		for i := range g.Subs {
			if g.Subs[i], err = d.pid(); err != nil {
				return err
			}
		}
	}
	if n, err = d.count(maxListLen, minUnsubLen); err != nil {
		return err
	}
	if n > 0 {
		g.Unsubs = d.mem.unsubList(n)
		for i := range g.Unsubs {
			if g.Unsubs[i].Process, err = d.pid(); err != nil {
				return err
			}
			if g.Unsubs[i].Stamp, err = d.uvarint(); err != nil {
				return err
			}
		}
	}
	if g.Events, err = d.events(); err != nil {
		return err
	}
	if g.Digest, err = d.idList(); err != nil {
		return err
	}
	g.DigestWatermarks, err = d.idList()
	return err
}

// message reads the version-1 frame that is all of d.buf into m, which the
// caller passes zeroed.
func (d *decoder) message(m *proto.Message) error {
	mg, err := d.byte()
	if err != nil {
		return err
	}
	if mg != magic {
		return ErrBadMagic
	}
	ver, err := d.byte()
	if err != nil {
		return err
	}
	if ver != version {
		return fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	kind, err := d.byte()
	if err != nil {
		return err
	}
	m.Kind = proto.MessageKind(kind)
	if m.From, err = d.pid(); err != nil {
		return err
	}
	if m.To, err = d.pid(); err != nil {
		return err
	}

	switch m.Kind {
	case proto.GossipMsg:
		g := d.mem.gossip()
		if err := d.gossip(g); err != nil {
			return err
		}
		m.Gossip = g
	case proto.SubscribeMsg:
		if m.Subscriber, err = d.pid(); err != nil {
			return err
		}
	case proto.RetransmitRequestMsg:
		if m.Request, err = d.idList(); err != nil {
			return err
		}
	case proto.RetransmitReplyMsg:
		if m.Reply, err = d.events(); err != nil {
			return err
		}
		n, err := d.count(maxListLen, minHopLen)
		if err != nil {
			return err
		}
		if n > 0 {
			m.ReplyHops = d.mem.hopList(n)
			for i := range m.ReplyHops {
				h, err := d.uvarint()
				if err != nil {
					return err
				}
				if h > 1<<31 {
					return fmt.Errorf("wire: hop count %d out of range", h)
				}
				m.ReplyHops[i] = uint32(h)
			}
		}
	default:
		return fmt.Errorf("wire: unknown message kind %d", kind)
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

// Decode parses a message previously produced by Encode. On error it
// returns the zero Message, nothing of what it read.
func Decode(buf []byte) (proto.Message, error) {
	var m proto.Message
	d := decoder{buf: buf}
	if err := d.message(&m); err != nil {
		return proto.Message{}, err
	}
	return m, nil
}

// appendDecoded decodes the version-1 frame f into the next slot of out.
func appendDecoded(out []proto.Message, f []byte, mem *Arena) ([]proto.Message, error) {
	out = append(out, proto.Message{})
	d := decoder{buf: f, mem: mem}
	if err := d.message(&out[len(out)-1]); err != nil {
		out[len(out)-1] = proto.Message{}
		return out[:len(out)-1], err
	}
	return out, nil
}

// decodeBatch parses a datagram holding either a single version-1 frame or
// a version-2 container, appending the contained messages to out and
// cutting their lists from mem (the heap when mem is nil). On error the
// returned slice holds the messages decoded before the failure.
func decodeBatch(buf []byte, out []proto.Message, mem *Arena) ([]proto.Message, error) {
	if len(buf) < 2 {
		return out, ErrTruncated
	}
	if buf[0] != magic {
		return out, ErrBadMagic
	}
	if buf[1] != versionBatch {
		return appendDecoded(out, buf, mem)
	}
	d := decoder{buf: buf, off: 2}
	n, err := d.count(MaxBatchLen, 1+minFrameLen)
	if err != nil {
		return out, err
	}
	if n == 0 {
		return out, errors.New("wire: empty container frame")
	}
	for i := 0; i < n; i++ {
		flen, err := d.count(maxPayloadLen, 1)
		if err != nil {
			return out, err
		}
		if out, err = appendDecoded(out, d.buf[d.off:d.off+flen], mem); err != nil {
			return out, err
		}
		d.off += flen
	}
	if d.off != len(buf) {
		return out, fmt.Errorf("wire: %d trailing bytes after container", len(buf)-d.off)
	}
	return out, nil
}
