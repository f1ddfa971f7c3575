package wire

import (
	"reflect"
	"testing"

	"repro/internal/proto"
)

// decodeSeeds is FuzzDecode's corpus: real encodings of every message kind,
// a container of them, the shortest rejects, and a request whose origin is
// past 2^32-1.
func decodeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	msgs := []proto.Message{
		{Kind: proto.SubscribeMsg, From: 1, To: 2, Subscriber: 1},
		{Kind: proto.RetransmitRequestMsg, From: 3, To: 4,
			Request: []proto.EventID{{Origin: 1, Seq: 2}}},
		{Kind: proto.RetransmitReplyMsg, From: 5, To: 6,
			Reply:     []proto.Event{{ID: proto.EventID{Origin: 7, Seq: 8}, Payload: []byte("x")}},
			ReplyHops: []uint32{1}},
		sampleGossip(),
	}
	var seeds [][]byte
	for _, m := range msgs {
		buf, err := Encode(m)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf)
	}
	batch, err := encodeBatch(msgs)
	if err != nil {
		tb.Fatal(err)
	}
	wide, err := Encode(wideMessages()[3])
	if err != nil {
		tb.Fatal(err)
	}
	return append(seeds, batch, []byte{}, []byte{'L', 1, 1}, []byte{'L', 2, 1}, widened(tb, wide))
}

// containerSeeds is FuzzDecodeContainer's corpus.
func containerSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	frame := func(m proto.Message) []byte {
		buf, err := Encode(m)
		if err != nil {
			tb.Fatal(err)
		}
		return buf
	}
	sub := frame(proto.Message{Kind: proto.SubscribeMsg, From: 1, To: 2, Subscriber: 1})
	gos := frame(sampleGossip())
	req := frame(proto.Message{Kind: proto.RetransmitRequestMsg, From: 3, To: 4,
		Request: []proto.EventID{{Origin: 1, Seq: 2}}})

	pack := func(frames ...[]byte) []byte {
		buf, err := PackFrames(frames)
		if err != nil {
			tb.Fatal(err)
		}
		return buf
	}
	return [][]byte{
		// Well-formed containers of every arity the transport produces.
		pack(sub, gos),
		pack(gos, req, sub),
		pack(sub, sub, sub, sub),
		// Hostile shapes: a container nested inside a container frame slot,
		// a lying frame count, truncated length prefixes, and giant counts.
		pack(pack(sub, gos), req),
		{'L', 2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		{'L', 2, 2, 3, 'L', 1},
		append(pack(sub, gos)[:8], 0xFF),
		// A gossip announcing 65 535 events in eleven bytes.
		{'L', 1, 1, 1, 2, 1, 0, 0, 0xff, 0xff, 0x03},
	}
}

// FuzzDecode exercises the decoder with arbitrary datagrams: it must never
// panic, and anything that decodes must re-encode and decode to the same
// message (canonical round-trip). Seeds come from real encodings.
func FuzzDecode(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := Decode(data); err == nil {
			// Canonical round-trip: re-encoding a decoded message and
			// decoding again must be a fixed point.
			buf2, err := Encode(m)
			if err != nil {
				t.Fatalf("decoded message does not re-encode: %+v: %v", m, err)
			}
			m2, err := Decode(buf2)
			if err != nil {
				t.Fatalf("re-encoded message does not decode: %v", err)
			}
			if !reflect.DeepEqual(m, m2) {
				t.Fatalf("round-trip not a fixed point:\n1st %+v\n2nd %+v", m, m2)
			}
		}
		// The container decoder must hold the same invariants: no panics,
		// and anything accepted re-encodes to the same batch.
		msgs, err := decodeBatch(data, nil, nil)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		buf2, err := encodeBatch(msgs)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %+v: %v", msgs, err)
		}
		msgs2, err := decodeBatch(buf2, nil, nil)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !reflect.DeepEqual(msgs, msgs2) {
			t.Fatalf("batch round-trip not a fixed point:\n1st %+v\n2nd %+v", msgs, msgs2)
		}
	})
}

// FuzzDecodeContainer focuses the fuzzer on the version-2 container
// format: frame-count and frame-length prefixes are the decoder's most
// dangerous inputs (hostile counts, truncated inner frames, nested
// containers). The harness mutates whole datagrams seeded with real
// containers in hostile shapes; the decoder must never panic, anything
// accepted must round-trip canonically, and a rejected container must not
// leave partially-decoded messages unreported.
func FuzzDecodeContainer(f *testing.F) {
	for _, seed := range containerSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, err := decodeBatch(data, nil, nil)
		if err != nil {
			return // rejection is fine; panics and hangs are not
		}
		// Canonical round-trip through the batch encoder.
		buf2, err := encodeBatch(msgs)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %+v: %v", msgs, err)
		}
		msgs2, err := decodeBatch(buf2, nil, nil)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !reflect.DeepEqual(msgs, msgs2) {
			t.Fatalf("container round-trip not a fixed point:\n1st %+v\n2nd %+v", msgs, msgs2)
		}
		// Decoding into a warm scratch slice must agree with the fresh
		// decode — the UDP read loop reuses its scratch across datagrams.
		scratch := make([]proto.Message, 0, 8)
		scratch = append(scratch, proto.Message{Kind: proto.SubscribeMsg, Subscriber: 42})
		msgs3, err := decodeBatch(data, scratch[:0], nil)
		if err != nil {
			t.Fatalf("scratch decode rejected what fresh decode accepted: %v", err)
		}
		if !reflect.DeepEqual(msgs, msgs3) {
			t.Fatalf("scratch decode diverged:\nfresh   %+v\nscratch %+v", msgs, msgs3)
		}
	})
}

// FuzzDecodeArena holds the arena decode to the allocating one: the same
// messages, deep-equal, or the same error and the same messages before it;
// and an arena that has just failed, or just held another datagram, decodes
// the next one as a fresh arena would.
func FuzzDecodeArena(f *testing.F) {
	for _, seed := range append(decodeSeeds(f), containerSeeds(f)...) {
		f.Add(seed)
	}
	valid, err := encodeBatch(sampleBatch())
	if err != nil {
		f.Fatal(err)
	}
	want, err := decodeBatch(valid, nil, nil)
	if err != nil {
		f.Fatal(err)
	}

	var kept Arena // lives across inputs, as the transport's does across datagrams
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := decodeBatch(data, nil, nil)
		var fresh Arena
		for _, a := range []*Arena{&fresh, &kept} {
			got, err := a.DecodeBatch(data)
			if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
				t.Fatalf("arena decode err = %v, allocating decode err = %v", err, refErr)
			}
			if len(got) != len(ref) || (len(ref) > 0 && !reflect.DeepEqual(got, ref)) {
				t.Fatalf("arena decode diverged:\narena %+v\nheap  %+v", got, ref)
			}
			// Whatever data was, the arena is fit for a valid datagram.
			got, err = a.DecodeBatch(valid)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("after %x the arena decodes the sample batch as %+v, %v", data, got, err)
			}
		}
	})
}
