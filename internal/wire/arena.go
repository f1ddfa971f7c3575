package wire

import (
	"unsafe"

	"repro/internal/pool"
	"repro/internal/proto"
)

// Arena is the storage one decoded datagram lives in: the messages and every
// list, payload and Gossip they reference. DecodeBatch takes all of it back
// and hands it out again, so an Arena that is kept decodes datagram after
// datagram without allocating once its slabs (pool.Bump) have reached the
// size of the traffic. The zero value is ready to use; an Arena must not be
// used by two goroutines at once.
type Arena struct {
	msgs    []proto.Message
	lists   proto.EmitArena // the gossips and the lists an emission also has
	hops    pool.Bump[uint32]
	payload pool.Bump[byte]
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
	a.lists.Reset()
	a.hops.Reset()
	a.payload.Reset()
}

// Size is the number of bytes of storage the arena keeps.
func (a *Arena) Size() int {
	return cap(a.msgs)*int(unsafe.Sizeof(proto.Message{})) +
		a.lists.Size() + a.hops.Size() + a.payload.Size()
}

// The decoder's lists: n zeroed elements from the arena, or from the heap
// when there is none.

func (a *Arena) gossip() *proto.Gossip {
	if a == nil {
		return new(proto.Gossip)
	}
	return a.lists.Gossip()
}

func (a *Arena) pidList(n int) []proto.ProcessID {
	if a == nil {
		return make([]proto.ProcessID, n)
	}
	return a.lists.PIDs(n)
}

func (a *Arena) unsubList(n int) []proto.Unsubscription {
	if a == nil {
		return make([]proto.Unsubscription, n)
	}
	return a.lists.Unsubs(n)
}

func (a *Arena) eventList(n int) []proto.Event {
	if a == nil {
		return make([]proto.Event, n)
	}
	return a.lists.Events(n)
}

func (a *Arena) idList(n int) []proto.EventID {
	if a == nil {
		return make([]proto.EventID, n)
	}
	return a.lists.IDs(n)
}

func (a *Arena) hopList(n int) []uint32 {
	if a == nil {
		return make([]uint32, n)
	}
	return a.hops.Cut(n)
}

func (a *Arena) byteList(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	return a.payload.Cut(n)
}
