package proto

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestProcessIDString(t *testing.T) {
	t.Parallel()
	if got := ProcessID(42).String(); got != "p42" {
		t.Errorf("String = %q", got)
	}
	if NilProcess != 0 {
		t.Errorf("NilProcess = %d, want 0", NilProcess)
	}
}

func TestEventIDLess(t *testing.T) {
	t.Parallel()
	cases := []struct {
		a, b EventID
		want bool
	}{
		{EventID{1, 1}, EventID{1, 2}, true},
		{EventID{1, 2}, EventID{1, 1}, false},
		{EventID{1, 9}, EventID{2, 1}, true},
		{EventID{2, 1}, EventID{1, 9}, false},
		{EventID{1, 1}, EventID{1, 1}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEventIDLessTotalOrder(t *testing.T) {
	t.Parallel()
	if err := quick.Check(func(a, b EventID) bool {
		// Exactly one of a<b, b<a, a==b.
		less := a.Less(b)
		greater := b.Less(a)
		equal := a == b
		n := 0
		for _, v := range []bool{less, greater, equal} {
			if v {
				n++
			}
		}
		return n == 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventClone(t *testing.T) {
	t.Parallel()
	e := Event{ID: EventID{1, 1}, Payload: []byte{1, 2, 3}}
	c := e.Clone()
	c.Payload[0] = 99
	if e.Payload[0] != 1 {
		t.Error("Clone aliased payload")
	}
	empty := Event{ID: EventID{2, 2}}
	if got := empty.Clone(); got.Payload != nil {
		t.Errorf("Clone of nil payload = %v", got.Payload)
	}
}

func TestGossipClone(t *testing.T) {
	t.Parallel()
	g := Gossip{
		From:   7,
		Subs:   []ProcessID{1, 2},
		Unsubs: []Unsubscription{{Process: 3, Stamp: 10}},
		Events: []Event{{ID: EventID{1, 1}, Payload: []byte{5}}},
		Digest: []EventID{{1, 1}, {2, 2}},
	}
	c := g.Clone()
	c.Subs[0] = 99
	c.Unsubs[0].Process = 99
	c.Events[0].Payload[0] = 99
	c.Digest[0].Seq = 99
	if g.Subs[0] != 1 || g.Unsubs[0].Process != 3 || g.Events[0].Payload[0] != 5 || g.Digest[0].Seq != 1 {
		t.Error("Clone aliased inner slices")
	}
}

func TestGossipCloneNil(t *testing.T) {
	t.Parallel()
	g := Gossip{From: 1}
	c := g.Clone()
	if c.Subs != nil || c.Unsubs != nil || c.Events != nil || c.Digest != nil {
		t.Errorf("Clone of empty gossip allocated slices: %+v", c)
	}
}

func TestMessageKindString(t *testing.T) {
	t.Parallel()
	cases := map[MessageKind]string{
		GossipMsg:            "gossip",
		SubscribeMsg:         "subscribe",
		RetransmitRequestMsg: "retransmit-request",
		RetransmitReplyMsg:   "retransmit-reply",
		MessageKind(200):     "kind(200)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestMessageClone(t *testing.T) {
	t.Parallel()
	m := Message{
		Kind:      RetransmitReplyMsg,
		From:      1,
		To:        2,
		Gossip:    &Gossip{From: 1, Subs: []ProcessID{1, 2}},
		Request:   []EventID{{1, 1}},
		Reply:     []Event{{ID: EventID{1, 1}, Payload: []byte{5}}},
		ReplyHops: []uint32{3},
	}
	c := m.Clone()
	if !reflect.DeepEqual(m, c) {
		t.Fatalf("Clone = %+v, want %+v", c, m)
	}
	c.Gossip.Subs[0], c.Request[0].Seq, c.Reply[0].Payload[0], c.ReplyHops[0] = 9, 9, 9, 9
	if m.Gossip.Subs[0] != 1 || m.Request[0].Seq != 1 || m.Reply[0].Payload[0] != 5 || m.ReplyHops[0] != 3 {
		t.Errorf("Clone aliased its source: %+v", m)
	}
	if c.Gossip == m.Gossip {
		t.Error("Clone shares the gossip body")
	}
}
