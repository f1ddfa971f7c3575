package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/proto"
)

// encodeBatch packs msgs into one datagram with a Packer of no budget, as
// a sender does: one message is a plain version-1 frame, two or more a
// container. It refuses an empty batch and one past MaxBatchLen frames.
func encodeBatch(msgs []proto.Message) ([]byte, error) {
	p := Packer{Budget: math.MaxInt}
	for i := range msgs {
		full, _, err := p.Add(&msgs[i])
		if err != nil {
			return nil, err
		}
		if full != nil {
			return nil, fmt.Errorf("wire: batch of %d frames exceeds limit %d", len(msgs), MaxBatchLen)
		}
	}
	d, _ := p.Finish()
	if d == nil {
		return nil, errors.New("wire: empty batch")
	}
	return d, nil
}

func sampleGossip() proto.Message {
	return proto.Message{
		Kind: proto.GossipMsg,
		From: 7,
		To:   9,
		Gossip: &proto.Gossip{
			From:   7,
			Subs:   []proto.ProcessID{7, 12, 13},
			Unsubs: []proto.Unsubscription{{Process: 4, Stamp: 1000}},
			Events: []proto.Event{
				{ID: proto.EventID{Origin: 7, Seq: 1}, Payload: []byte("hello")},
				{ID: proto.EventID{Origin: 8, Seq: 2}},
			},
			Digest:           []proto.EventID{{Origin: 7, Seq: 1}, {Origin: 8, Seq: 2}},
			DigestWatermarks: []proto.EventID{{Origin: 7, Seq: 10}},
		},
	}
}

func roundTrip(t *testing.T, m proto.Message) proto.Message {
	t.Helper()
	buf, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestRoundTripGossip(t *testing.T) {
	t.Parallel()
	m := sampleGossip()
	got := roundTrip(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\nsent %+v\ngot  %+v", m, got)
	}
}

func TestRoundTripEmptyGossip(t *testing.T) {
	t.Parallel()
	m := proto.Message{Kind: proto.GossipMsg, From: 1, To: 2, Gossip: &proto.Gossip{From: 1}}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", m, got)
	}
}

func TestRoundTripSubscribe(t *testing.T) {
	t.Parallel()
	m := proto.Message{Kind: proto.SubscribeMsg, From: 3, To: 4, Subscriber: 3}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", m, got)
	}
}

func TestRoundTripRetransmitRequest(t *testing.T) {
	t.Parallel()
	m := proto.Message{
		Kind:    proto.RetransmitRequestMsg,
		From:    1,
		To:      2,
		Request: []proto.EventID{{Origin: 5, Seq: 6}},
	}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", m, got)
	}
}

func TestRoundTripRetransmitReply(t *testing.T) {
	t.Parallel()
	m := proto.Message{
		Kind:      proto.RetransmitReplyMsg,
		From:      1,
		To:        2,
		Reply:     []proto.Event{{ID: proto.EventID{Origin: 5, Seq: 6}, Payload: []byte{0, 1, 2}}},
		ReplyHops: []uint32{3},
	}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", m, got)
	}
}

func TestEncodeRejectsBadMessages(t *testing.T) {
	t.Parallel()
	if _, err := Encode(proto.Message{Kind: proto.GossipMsg}); err == nil {
		t.Error("encoded gossip without body")
	}
	if _, err := Encode(proto.Message{Kind: proto.MessageKind(77)}); err == nil {
		t.Error("encoded unknown kind")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"bad magic", []byte{'X', 1, 1}, ErrBadMagic},
		{"bad version", []byte{'L', 9, 1}, ErrBadVersion},
		{"kind only", []byte{'L', 1}, ErrTruncated},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			_, err := Decode(c.buf)
			if err == nil {
				t.Fatal("Decode succeeded on garbage")
			}
			if c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

// wideMessages sets, in each message, one process id or sequence number to
// 2^32-1, the largest an id holds, where the wire may carry larger: the
// header's ids, the subscriber, the gossip's sender, a sub, an unsub, an
// event's, a digest id's and a watermark's origin and seq, and a request's
// and a reply's. Every other id is below 128, so that value's uvarint is
// found once in the message's encoding.
func wideMessages() []proto.Message {
	const top = proto.ProcessID(proto.MaxSeq)
	gossip := func(set func(g *proto.Gossip)) *proto.Gossip {
		g := &proto.Gossip{From: 7, Subs: []proto.ProcessID{7}, Unsubs: []proto.Unsubscription{{Process: 4, Stamp: 1 << 40}},
			Events: []proto.Event{{ID: proto.EventID{Origin: 7, Seq: 1}, Payload: []byte("x")}},
			Digest: []proto.EventID{{Origin: 7, Seq: 1}}, DigestWatermarks: []proto.EventID{{Origin: 7, Seq: 1}}}
		set(g)
		return g
	}
	gossips := []func(g *proto.Gossip){
		func(g *proto.Gossip) { g.From = top },
		func(g *proto.Gossip) { g.Subs[0] = top },
		func(g *proto.Gossip) { g.Unsubs[0].Process = top },
		func(g *proto.Gossip) { g.Events[0].ID.Origin = top },
		func(g *proto.Gossip) { g.Events[0].ID.Seq = proto.MaxSeq },
		func(g *proto.Gossip) { g.Digest[0].Origin = top },
		func(g *proto.Gossip) { g.Digest[0].Seq = proto.MaxSeq },
		func(g *proto.Gossip) { g.DigestWatermarks[0].Origin = top },
		func(g *proto.Gossip) { g.DigestWatermarks[0].Seq = proto.MaxSeq },
	}
	msgs := []proto.Message{
		{Kind: proto.SubscribeMsg, From: top, To: 2, Subscriber: 1},
		{Kind: proto.SubscribeMsg, From: 1, To: top, Subscriber: 1},
		{Kind: proto.SubscribeMsg, From: 1, To: 2, Subscriber: top},
		{Kind: proto.RetransmitRequestMsg, From: 1, To: 2, Request: []proto.EventID{{Origin: top, Seq: 2}}},
		{Kind: proto.RetransmitRequestMsg, From: 1, To: 2, Request: []proto.EventID{{Origin: 3, Seq: proto.MaxSeq}}},
		{Kind: proto.RetransmitReplyMsg, From: 1, To: 2, Reply: []proto.Event{{ID: proto.EventID{Origin: top, Seq: 2}}}},
		{Kind: proto.RetransmitReplyMsg, From: 1, To: 2, Reply: []proto.Event{{ID: proto.EventID{Origin: 3, Seq: proto.MaxSeq}}}},
	}
	for _, set := range gossips {
		msgs = append(msgs, proto.Message{Kind: proto.GossipMsg, From: 1, To: 2, Gossip: gossip(set)})
	}
	return msgs
}

// widened returns buf with the uvarint of 2^32-1 it holds once replaced by
// the uvarint of 2^32, as long.
func widened(tb testing.TB, buf []byte) []byte {
	tb.Helper()
	top, past := binary.AppendUvarint(nil, proto.MaxSeq), binary.AppendUvarint(nil, proto.MaxSeq+1)
	if bytes.Count(buf, top) != 1 || len(top) != len(past) {
		tb.Fatalf("%x holds 2^32-1 %d times", buf, bytes.Count(buf, top))
	}
	return bytes.Replace(buf, top, past, 1)
}

// TestDecodeRefusesWideIDs: for any well-framed datagram whose process id
// or sequence number — in the header, the subscriber, the gossip's sender,
// a sub, an unsub, an event, the digest, the watermarks, a request or a
// reply — is past 2^32-1, every decoder SHALL refuse it with ErrWideID,
// without a panic and without handing out any part of the message: Decode
// returns the zero Message, and a container keeps the frames before it
// alone, on the heap and in an arena. The same datagram at 2^32-1 decodes.
func TestDecodeRefusesWideIDs(t *testing.T) {
	t.Parallel()
	before := proto.Message{Kind: proto.SubscribeMsg, From: 5, To: 6, Subscriber: 5}
	var arena Arena
	for i, m := range wideMessages() {
		buf, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Decode(buf); err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("message %d at 2^32-1: decoded %+v, %v; want %+v", i, got, err, m)
		}
		wide := widened(t, buf)
		if got, err := Decode(wide); !errors.Is(err, ErrWideID) || !reflect.DeepEqual(got, proto.Message{}) {
			t.Fatalf("message %d past 2^32-1: Decode = %+v, %v; want the zero Message, ErrWideID", i, got, err)
		}
		batch, err := encodeBatch([]proto.Message{before, m})
		if err != nil {
			t.Fatal(err)
		}
		batch = widened(t, batch)
		if got, err := decodeBatch(batch, nil, nil); !errors.Is(err, ErrWideID) || !reflect.DeepEqual(got, []proto.Message{before}) {
			t.Fatalf("message %d past 2^32-1 in a container: DecodeBatch = %+v, %v; want the frame before it, ErrWideID", i, got, err)
		}
		if got, err := arena.DecodeBatch(batch); !errors.Is(err, ErrWideID) || !reflect.DeepEqual(got, []proto.Message{before}) {
			t.Fatalf("message %d past 2^32-1 in a container: Arena.DecodeBatch = %+v, %v; want the frame before it, ErrWideID", i, got, err)
		}
	}
}

func TestDecodeRejectsTruncations(t *testing.T) {
	t.Parallel()
	buf, err := Encode(sampleGossip())
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly, never panic.
	for i := 0; i < len(buf); i++ {
		if _, err := Decode(buf[:i]); err == nil {
			t.Fatalf("prefix of length %d decoded successfully", i)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	t.Parallel()
	buf, err := Encode(sampleGossip())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(buf, 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeRejectsHugeCounts(t *testing.T) {
	t.Parallel()
	// Craft a gossip header announcing 2^40 subs.
	buf := []byte{'L', 1, byte(proto.GossipMsg), 1, 2, 1}
	buf = append(buf, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // uvarint 2^40
	if _, err := Decode(buf); err == nil {
		t.Fatal("huge count accepted")
	}
}

func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		n := r.Intn(64)
		buf := make([]byte, n)
		r.Read(buf)
		_, _ = Decode(buf) // must not panic
	}
}

func TestDecodeMutatedMessagesNeverPanic(t *testing.T) {
	t.Parallel()
	base, err := Encode(sampleGossip())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		buf := append([]byte(nil), base...)
		for j := 0; j < 1+r.Intn(4); j++ {
			buf[r.Intn(len(buf))] ^= byte(1 << r.Intn(8))
		}
		if m, err := Decode(buf); err == nil {
			// A mutated message may still decode; it must at least be
			// structurally sound.
			if m.Kind == proto.GossipMsg && m.Gossip == nil {
				t.Fatal("decoded gossip without body")
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	t.Parallel()
	if err := quick.Check(func(from, to, origin uint16, seq uint32, payload []byte, subsRaw []uint16, stamps []uint32) bool {
		m := propertyMessage(from, to, origin, seq, payload, subsRaw, stamps)
		buf, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedSizeIsCompact(t *testing.T) {
	t.Parallel()
	// A default-shaped gossip (15 subs, 60 digest ids, 40 small events) must
	// fit comfortably in one UDP datagram.
	g := &proto.Gossip{From: 1}
	for i := 0; i < 15; i++ {
		g.Subs = append(g.Subs, proto.ProcessID(i+1))
	}
	for i := 0; i < 60; i++ {
		g.Digest = append(g.Digest, proto.EventID{Origin: proto.ProcessID(i%8 + 1), Seq: uint32(i)})
	}
	for i := 0; i < 40; i++ {
		g.Events = append(g.Events, proto.Event{
			ID:      proto.EventID{Origin: 1, Seq: uint32(i)},
			Payload: []byte("0123456789abcdef"),
		})
	}
	buf, err := Encode(proto.Message{Kind: proto.GossipMsg, From: 1, To: 2, Gossip: g})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 8192 {
		t.Errorf("encoded size %d exceeds 8 KiB", len(buf))
	}
}

func sampleBatch() []proto.Message {
	return []proto.Message{
		sampleGossip(),
		{Kind: proto.SubscribeMsg, From: 3, To: 9, Subscriber: 3},
		{Kind: proto.RetransmitRequestMsg, From: 5, To: 9,
			Request: []proto.EventID{{Origin: 1, Seq: 4}}},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	t.Parallel()
	msgs := sampleBatch()
	buf, err := encodeBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBatch(buf, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(msgs, got) {
		t.Fatalf("batch round trip mismatch:\nsent %+v\ngot  %+v", msgs, got)
	}
}

func TestBatchOfOneStaysVersionOne(t *testing.T) {
	t.Parallel()
	// The compat contract: a single-message batch emits a plain v1 frame
	// readable by pre-batch receivers...
	m := sampleGossip()
	buf, err := encodeBatch([]proto.Message{m})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Decode(buf)
	if err != nil {
		t.Fatalf("single-message batch is not a v1 frame: %v", err)
	}
	if !reflect.DeepEqual(m, single) {
		t.Fatalf("mismatch: %+v vs %+v", m, single)
	}
	// ...and DecodeBatch accepts v1 frames, so batch-capable receivers read
	// pre-batch senders.
	got, err := decodeBatch(buf, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(m, got[0]) {
		t.Fatalf("decodeBatch(v1 frame) = %+v", got)
	}
}

func TestDecodeRejectsContainerFrame(t *testing.T) {
	t.Parallel()
	// A v1-only Decode must cleanly reject a container rather than
	// misparse it.
	buf, err := encodeBatch(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(buf); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("Decode(container) = %v, want ErrBadVersion", err)
	}
}

func TestBatchRejectsGarbage(t *testing.T) {
	t.Parallel()
	if _, err := encodeBatch(nil); err == nil {
		t.Error("encoded empty batch")
	}
	if _, err := PackFrames(nil); err == nil {
		t.Error("packed empty frame list")
	}
	if _, err := PackFrames(make([][]byte, MaxBatchLen+1)); err == nil {
		t.Error("packed oversized frame list")
	}
	if _, err := decodeBatch(nil, nil, nil); err == nil {
		t.Error("decoded empty buffer")
	}
	if _, err := decodeBatch([]byte{'X', versionBatch}, nil, nil); err == nil {
		t.Error("decoded bad magic")
	}
	// Container announcing one frame but holding none.
	if _, err := decodeBatch([]byte{'L', versionBatch, 1}, nil, nil); err == nil {
		t.Error("decoded truncated container")
	}
	// Empty container.
	if _, err := decodeBatch([]byte{'L', versionBatch, 0}, nil, nil); err == nil {
		t.Error("decoded empty container")
	}
}

func TestBatchTruncationsNeverPanic(t *testing.T) {
	t.Parallel()
	buf, err := encodeBatch(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(buf); i++ {
		if _, err := decodeBatch(buf[:i], nil, nil); err == nil {
			t.Fatalf("container prefix of length %d decoded successfully", i)
		}
	}
	if _, err := decodeBatch(append(buf, 0xFF), nil, nil); err == nil {
		t.Fatal("trailing byte after container accepted")
	}
}

func BenchmarkEncodeBatch(b *testing.B) {
	msgs := sampleBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encodeBatch(msgs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeGossip(b *testing.B) {
	m := sampleGossip()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeGossip(b *testing.B) {
	buf, err := Encode(sampleGossip())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// hostileCounts are short datagrams that announce far more than they hold:
// each list of each message kind, a payload, and a container's frames.
func hostileCounts() [][]byte {
	huge := []byte{0xff, 0xff, 0x03} // 65 535, under every list limit
	gossip := []byte{'L', 1, byte(proto.GossipMsg), 1, 2, 1}
	with := func(head []byte, tail ...byte) []byte {
		return append(append([]byte(nil), head...), tail...)
	}
	return [][]byte{
		with(gossip, huge...),                                // subs
		with(gossip, append([]byte{0}, huge...)...),          // unsubs
		with(gossip, append([]byte{0, 0}, huge...)...),       // events: the datagram of the report
		with(gossip, append([]byte{0, 0, 0}, huge...)...),    // digest
		with(gossip, append([]byte{0, 0, 0, 0}, huge...)...), // watermarks
		with(gossip, 0, 0, 1, 1, 1, 0xff, 0xff, 0x3f),        // one event, payload of 1 MB − 1
		with([]byte{'L', 1, byte(proto.RetransmitRequestMsg), 1, 2}, huge...),
		with([]byte{'L', 1, byte(proto.RetransmitReplyMsg), 1, 2}, huge...),
		with([]byte{'L', 1, byte(proto.RetransmitReplyMsg), 1, 2, 0}, huge...), // hops
		{'L', 2, 0xff, 0x1f},                                                   // 4 095 frames
	}
}

// TestDecodeAllocatesInProportion is aim 3 for the decoder: whatever a
// datagram of n bytes announces, decoding it — valid or not, onto the heap
// or into a fresh arena — allocates at most a constant times n. (The report:
// eleven bytes announcing 65 535 events took 2.6 MB before failing.) Not
// parallel: it reads the process's allocation counter.
func TestDecodeAllocatesInProportion(t *testing.T) {
	inputs := append(append(hostileCounts(), decodeSeeds(t)...), containerSeeds(t)...)
	big, err := Encode(proto.Message{Kind: proto.RetransmitReplyMsg, From: 1, To: 2,
		Reply: []proto.Event{{ID: proto.EventID{Origin: 1, Seq: 1}, Payload: make([]byte, 50000)}}})
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, big, big[:len(big)/2])
	r := rand.New(rand.NewSource(3))
	base, err := encodeBatch(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		buf := append([]byte(nil), base...)
		for j := 0; j < 1+r.Intn(4); j++ {
			buf[r.Intn(len(buf))] ^= byte(1 << r.Intn(8))
		}
		inputs = append(inputs, buf[:1+r.Intn(len(buf))])
	}

	// The counter is the process's: the runtime's own allocations land in
	// it now and then, so a reading over the limit is taken again, and only
	// what three readings in a row exceed counts.
	allocated := func(limit uint64, f func()) uint64 {
		var before, after runtime.MemStats
		least := ^uint64(0)
		for try := 0; try < 3 && least > limit; try++ {
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	for _, data := range inputs {
		// 64 B a wire byte covers the costliest element (an event: 40 B for
		// three bytes) under a doubling slice; 512 B an error's text.
		limit := uint64(64*len(data) + 512)
		if got := allocated(limit, func() { _, _ = decodeBatch(data, nil, nil) }); got > limit {
			t.Errorf("DecodeBatch of %d bytes (% x…) allocated %d B, limit %d", len(data), data[:min(len(data), 12)], got, limit)
		}
		if got := allocated(limit, func() { _, _ = new(Arena).DecodeBatch(data) }); got > limit {
			t.Errorf("Arena.DecodeBatch of %d bytes (% x…) allocated %d B, limit %d", len(data), data[:min(len(data), 12)], got, limit)
		}
		if len(data) >= 2 && data[1] == version {
			if got := allocated(limit, func() { _, _ = Decode(data) }); got > limit {
				t.Errorf("Decode of %d bytes (% x…) allocated %d B, limit %d", len(data), data[:min(len(data), 12)], got, limit)
			}
		}
	}
	for _, data := range hostileCounts() {
		if _, err := decodeBatch(data, nil, nil); err == nil {
			t.Errorf("% x decoded", data)
		}
	}
}
