package wire

import (
	"unsafe"

	"repro/internal/proto"
)

// Arena is the storage one decoded datagram lives in: the messages and every
// list, payload and Gossip they reference. DecodeBatch takes all of it back
// and hands it out again, so an Arena that is kept decodes datagram after
// datagram without allocating once its slabs have reached the size of the
// traffic. The zero value is ready to use; an Arena must not be used by two
// goroutines at once.
type Arena struct {
	msgs    []proto.Message
	gossips slab[proto.Gossip]
	pids    slab[proto.ProcessID]
	unsubs  slab[proto.Unsubscription]
	events  slab[proto.Event]
	ids     slab[proto.EventID]
	hops    slab[uint32]
	payload slab[byte]
}

// DecodeBatch is the package's DecodeBatch into the arena's storage: the
// messages it returns, and everything they reference, are valid until the
// next DecodeBatch or Reset. A datagram that fails to decode leaves the
// arena fit for the next one.
func (a *Arena) DecodeBatch(buf []byte) ([]proto.Message, error) {
	a.Reset()
	msgs, err := decodeBatch(buf, a.msgs, a)
	a.msgs = msgs
	return msgs, err
}

// Reset takes back everything the arena handed out and zeroes it, so that a
// kept arena references nothing of the datagram it last held.
func (a *Arena) Reset() {
	clear(a.msgs)
	a.msgs = a.msgs[:0]
	a.gossips.reset()
	a.pids.reset()
	a.unsubs.reset()
	a.events.reset()
	a.ids.reset()
	a.hops.reset()
	a.payload.reset()
}

// Size is the number of bytes of storage the arena keeps.
func (a *Arena) Size() int {
	return cap(a.msgs)*int(unsafe.Sizeof(proto.Message{})) +
		a.gossips.size() + a.pids.size() + a.unsubs.size() + a.events.size() +
		a.ids.size() + a.hops.size() + a.payload.size()
}

// The decoder's lists: n elements from the arena, or from the heap when
// there is none. The decoder writes every element it asks for.

func (a *Arena) gossip() *proto.Gossip {
	if a == nil {
		return new(proto.Gossip)
	}
	g := &a.gossips.cut(1)[0]
	*g = proto.Gossip{}
	return g
}

func (a *Arena) pidList(n int) []proto.ProcessID {
	if a == nil {
		return make([]proto.ProcessID, n)
	}
	return a.pids.cut(n)
}

func (a *Arena) unsubList(n int) []proto.Unsubscription {
	if a == nil {
		return make([]proto.Unsubscription, n)
	}
	return a.unsubs.cut(n)
}

func (a *Arena) eventList(n int) []proto.Event {
	if a == nil {
		return make([]proto.Event, n)
	}
	return a.events.cut(n)
}

func (a *Arena) idList(n int) []proto.EventID {
	if a == nil {
		return make([]proto.EventID, n)
	}
	return a.ids.cut(n)
}

func (a *Arena) hopList(n int) []uint32 {
	if a == nil {
		return make([]uint32, n)
	}
	return a.hops.cut(n)
}

func (a *Arena) byteList(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	return a.payload.cut(n)
}

// slab hands out runs of T from one chunk. A chunk too small for a request
// is left to the runs already cut from it and replaced by one that would
// have held everything cut since the last reset, so a recurring load settles
// on a single chunk.
type slab[T any] struct {
	chunk []T // len: handed out
	used  int // handed out since reset, over all chunks
}

// cut returns n elements with no capacity beyond them.
func (s *slab[T]) cut(n int) []T {
	s.used += n
	if cap(s.chunk)-len(s.chunk) < n {
		s.chunk = make([]T, 0, max(s.used, 2*cap(s.chunk)))
	}
	at := len(s.chunk)
	s.chunk = s.chunk[:at+n]
	return s.chunk[at : at+n : at+n]
}

func (s *slab[T]) reset() {
	clear(s.chunk)
	s.chunk = s.chunk[:0]
	s.used = 0
}

func (s *slab[T]) size() int {
	var zero T
	return cap(s.chunk) * int(unsafe.Sizeof(zero))
}
