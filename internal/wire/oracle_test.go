package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/proto"
)

// The reference of the encoder oracle: the encoder, Encode (as refEncode)
// and PackFrames exactly as they stood while every message was encoded into
// a buffer of its own and a container was assembled from those by copying.
// AppendEncode and Packer replaced them and must write the same bytes.

type encoder struct {
	buf []byte
	tmp [binary.MaxVarintLen64]byte
}

func (e *encoder) byte(b byte) { e.buf = append(e.buf, b) }

func (e *encoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.buf = append(e.buf, e.tmp[:n]...)
}

func (e *encoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *encoder) pid(p proto.ProcessID) { e.uvarint(uint64(p)) }

func (e *encoder) eventID(id proto.EventID) {
	e.pid(id.Origin)
	e.uvarint(uint64(id.Seq))
}

func (e *encoder) event(ev proto.Event) {
	e.eventID(ev.ID)
	e.bytes(ev.Payload)
}

func (e *encoder) idList(ids []proto.EventID) {
	e.uvarint(uint64(len(ids)))
	for _, id := range ids {
		e.eventID(id)
	}
}

// refEncode is Encode as it stood before AppendEncode replaced it.
func refEncode(m proto.Message) ([]byte, error) {
	e := &encoder{buf: make([]byte, 0, 256)}
	e.byte(magic)
	e.byte(version)
	e.byte(byte(m.Kind))
	e.pid(m.From)
	e.pid(m.To)
	switch m.Kind {
	case proto.GossipMsg:
		if m.Gossip == nil {
			return nil, errors.New("wire: gossip message without gossip body")
		}
		g := m.Gossip
		e.pid(g.From)
		e.uvarint(uint64(len(g.Subs)))
		for _, p := range g.Subs {
			e.pid(p)
		}
		e.uvarint(uint64(len(g.Unsubs)))
		for _, u := range g.Unsubs {
			e.pid(u.Process)
			e.uvarint(u.Stamp)
		}
		e.uvarint(uint64(len(g.Events)))
		for _, ev := range g.Events {
			e.event(ev)
		}
		e.idList(g.Digest)
		e.idList(g.DigestWatermarks)
	case proto.SubscribeMsg:
		e.pid(m.Subscriber)
	case proto.RetransmitRequestMsg:
		e.idList(m.Request)
	case proto.RetransmitReplyMsg:
		e.uvarint(uint64(len(m.Reply)))
		for _, ev := range m.Reply {
			e.event(ev)
		}
		e.uvarint(uint64(len(m.ReplyHops)))
		for _, h := range m.ReplyHops {
			e.uvarint(uint64(h))
		}
	default:
		return nil, fmt.Errorf("wire: cannot encode message kind %v", m.Kind)
	}
	return e.buf, nil
}

// PackFrames builds a version-2 container datagram from pre-encoded
// single-message frames. Callers that budget datagram sizes (the UDP
// transport) encode messages individually and pack greedily.
func PackFrames(frames [][]byte) ([]byte, error) {
	if len(frames) == 0 {
		return nil, errors.New("wire: empty batch")
	}
	if len(frames) > MaxBatchLen {
		return nil, fmt.Errorf("wire: batch of %d frames exceeds limit %d", len(frames), MaxBatchLen)
	}
	size := 2
	for _, f := range frames {
		size += binary.MaxVarintLen32 + len(f)
	}
	e := &encoder{buf: make([]byte, 0, size)}
	e.byte(magic)
	e.byte(versionBatch)
	e.uvarint(uint64(len(frames)))
	for _, f := range frames {
		e.bytes(f)
	}
	return e.buf, nil
}

// refDatagrams is the budget split of the UDP transport's SendBatch as it
// stood on top of refEncode and PackFrames, for the messages of one
// destination: messages that do not encode are skipped, the rest leave in
// greedy chunks of at most budget cost and MaxBatchLen frames, a chunk of
// one as the bare frame.
func refDatagrams(t testing.TB, msgs []proto.Message, budget int) (datagrams [][]byte, frames []int) {
	t.Helper()
	var encoded [][]byte
	for _, m := range msgs {
		if f, err := refEncode(m); err == nil {
			encoded = append(encoded, f)
		}
	}
	start, size := 0, 0
	flush := func(end int) {
		if end == start {
			return
		}
		chunk := encoded[start:end]
		d := chunk[0]
		if len(chunk) > 1 {
			var err error
			if d, err = PackFrames(chunk); err != nil {
				t.Fatalf("PackFrames: %v", err)
			}
		}
		datagrams, frames = append(datagrams, d), append(frames, len(chunk))
		start, size = end, 0
	}
	for i, f := range encoded {
		cost := len(f) + binary.MaxVarintLen32
		if i > start && (size+cost > budget || i-start >= MaxBatchLen) {
			flush(i)
		}
		size += cost
	}
	flush(len(encoded))
	return datagrams, frames
}

// packDatagrams sends the same messages through one Packer, copying each
// datagram as it is returned (the next call may overwrite it).
func packDatagrams(p *Packer, msgs []proto.Message) (datagrams [][]byte, frames []int) {
	keep := func(d []byte, n int) {
		if d != nil {
			datagrams, frames = append(datagrams, append([]byte(nil), d...)), append(frames, n)
		}
	}
	for i := range msgs {
		if d, n, err := p.Add(&msgs[i]); err == nil {
			keep(d, n)
		}
	}
	keep(p.Finish())
	return datagrams, frames
}

// checkAgainstReference compares both encoders over msgs: frame by frame,
// and datagram by datagram under budget.
func checkAgainstReference(t testing.TB, p *Packer, msgs []proto.Message) {
	t.Helper()
	prefix := []byte("kept")
	for i := range msgs {
		want, wantErr := refEncode(msgs[i])
		got, err := AppendEncode(prefix, &msgs[i])
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("message %d: AppendEncode err = %v, reference err = %v", i, err, wantErr)
		}
		if err != nil {
			if !bytes.Equal(got, prefix) {
				t.Fatalf("message %d: failed AppendEncode left %q of dst", i, got)
			}
			continue
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("message %d: AppendEncode wrote %d bytes, reference %d, first difference at byte %d",
				i, len(got)-len(prefix), len(want), firstDifference(got[len(prefix):], want))
		}
	}
	want, wantFrames := refDatagrams(t, msgs, p.Budget)
	got, gotFrames := packDatagrams(p, msgs)
	if len(got) != len(want) {
		t.Fatalf("%d messages: Packer wrote %d datagrams %v, reference %d %v", len(msgs), len(got), gotFrames, len(want), wantFrames)
	}
	for i := range want {
		if gotFrames[i] != wantFrames[i] || !bytes.Equal(got[i], want[i]) {
			t.Fatalf("datagram %d of %d: Packer wrote %d frames in %d bytes, reference %d frames in %d bytes, first difference at byte %d",
				i, len(want), gotFrames[i], len(got[i]), wantFrames[i], len(want[i]), firstDifference(got[i], want[i]))
		}
	}
}

func firstDifference(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// propertyMessage is the message TestRoundTripProperty builds from its
// generated arguments.
func propertyMessage(from, to, origin uint16, seq uint32, payload []byte, subsRaw []uint16, stamps []uint32) proto.Message {
	subs := make([]proto.ProcessID, len(subsRaw))
	for i, s := range subsRaw {
		subs[i] = proto.ProcessID(s)
	}
	unsubs := make([]proto.Unsubscription, len(stamps))
	for i, s := range stamps {
		unsubs[i] = proto.Unsubscription{Process: proto.ProcessID(i + 1), Stamp: uint64(s)}
	}
	if len(payload) == 0 {
		payload = nil
	}
	if len(subs) == 0 {
		subs = nil
	}
	if len(unsubs) == 0 {
		unsubs = nil
	}
	return proto.Message{
		Kind: proto.GossipMsg,
		From: proto.ProcessID(from),
		To:   proto.ProcessID(to),
		Gossip: &proto.Gossip{
			From:   proto.ProcessID(from),
			Subs:   subs,
			Unsubs: unsubs,
			Events: []proto.Event{{ID: proto.EventID{Origin: proto.ProcessID(origin), Seq: seq}, Payload: payload}},
		},
	}
}

// transportBudget is the budget the UDP transport packs under.
const transportBudget = 64*1024 - 16

// TestEncoderOracleProperty runs the oracle over TestRoundTripProperty's
// generator: each generated message alone, and the run of them so far as
// one destination's burst.
func TestEncoderOracleProperty(t *testing.T) {
	t.Parallel()
	p := &Packer{Budget: transportBudget}
	var burst []proto.Message
	if err := quick.Check(func(from, to, origin uint16, seq uint32, payload []byte, subsRaw []uint16, stamps []uint32) bool {
		m := propertyMessage(from, to, origin, seq, payload, subsRaw, stamps)
		checkAgainstReference(t, p, []proto.Message{m})
		burst = append(burst, m)
		if len(burst)%25 == 0 {
			checkAgainstReference(t, p, burst)
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEncoderOracleCorpus runs the oracle over every datagram of the fuzz
// corpus that decodes, and over the messages no datagram can hold: the ones
// the encoder refuses, alone and in the middle of a burst.
func TestEncoderOracleCorpus(t *testing.T) {
	t.Parallel()
	p := &Packer{Budget: transportBudget}
	for _, seed := range append(decodeSeeds(t), containerSeeds(t)...) {
		msgs, err := DecodeBatch(seed, nil)
		if err != nil {
			continue
		}
		checkAgainstReference(t, p, msgs)
	}
	bad := []proto.Message{
		{Kind: proto.GossipMsg, From: 1, To: 2},
		{Kind: proto.MessageKind(77), From: 1, To: 2},
	}
	checkAgainstReference(t, p, bad)
	mixed := append(append(sampleBatch(), bad...), sampleBatch()...)
	checkAgainstReference(t, p, mixed)
}

// TestEncoderOracleFrameLengths crosses the widths of a frame's length
// prefix — the frame is encoded behind room for two bytes and moved when it
// needs one or three — and the widths of the container's count.
func TestEncoderOracleFrameLengths(t *testing.T) {
	t.Parallel()
	p := &Packer{Budget: 1 << 30}
	reply := func(size int) proto.Message {
		return proto.Message{Kind: proto.RetransmitReplyMsg, From: 1, To: 2,
			Reply: []proto.Event{{ID: proto.EventID{Origin: 1, Seq: 1}, Payload: make([]byte, size)}}}
	}
	// Frame overhead around the payload is 11 or 12 bytes, so these sizes
	// put the frame on both sides of 128 and of 16 384 bytes.
	var burst []proto.Message
	for _, size := range []int{0, 1, 110, 114, 115, 116, 117, 118, 120, 16365, 16370, 16371, 16372, 16373, 16374, 16380, 40000} {
		m := reply(size)
		checkAgainstReference(t, p, []proto.Message{m, m})
		burst = append(burst, m)
	}
	checkAgainstReference(t, p, burst)
	// 127, 128 and 129 frames: the count grows to two bytes.
	sub := proto.Message{Kind: proto.SubscribeMsg, From: 1, To: 2, Subscriber: 1}
	for _, n := range []int{2, 127, 128, 129} {
		msgs := make([]proto.Message, n)
		for i := range msgs {
			msgs[i] = sub
		}
		checkAgainstReference(t, p, msgs)
	}
}

// TestEncoderOracleBudgetSplit drives the split at the transport's budget
// of 64 KB − 16 — bursts that fill a datagram to within a byte either way,
// and one frame larger than the budget — and at MaxBatchLen frames.
func TestEncoderOracleBudgetSplit(t *testing.T) {
	t.Parallel()
	p := &Packer{Budget: transportBudget}
	reply := func(seq uint32, size int) proto.Message {
		return proto.Message{Kind: proto.RetransmitReplyMsg, From: 1, To: 2,
			Reply: []proto.Event{{ID: proto.EventID{Origin: 1, Seq: seq}, Payload: make([]byte, size)}}}
	}
	// Three frames of 20 000 and a fourth sized so that the four cost the
	// budget less two up to the budget plus two.
	three := []proto.Message{reply(1, 20000), reply(2, 20000), reply(3, 20000)}
	used := 0
	for _, m := range three {
		f, err := refEncode(m)
		if err != nil {
			t.Fatal(err)
		}
		used += len(f) + binary.MaxVarintLen32
	}
	empty, err := refEncode(reply(4, 5000))
	if err != nil {
		t.Fatal(err)
	}
	overhead := len(empty) - 5000 + binary.MaxVarintLen32
	splits := map[int]bool{}
	for delta := -2; delta <= 2; delta++ {
		last := reply(4, transportBudget-used-overhead+delta)
		burst := append(append([]proto.Message(nil), three...), last, reply(5, 10), reply(6, 30000), reply(7, 30000), reply(8, 30000))
		checkAgainstReference(t, p, burst)
		d, _ := packDatagrams(p, burst[:4])
		splits[len(d)] = true
	}
	if !splits[1] || !splits[2] {
		t.Fatalf("the deltas did not straddle the budget: datagram counts seen %v", splits)
	}
	// A frame that alone exceeds the budget travels alone.
	checkAgainstReference(t, p, []proto.Message{reply(1, 10), reply(2, 70000), reply(3, 10), reply(4, 10)})

	sub := proto.Message{Kind: proto.SubscribeMsg, From: 1, To: 2, Subscriber: 1}
	for _, n := range []int{MaxBatchLen - 1, MaxBatchLen, MaxBatchLen + 1, 2*MaxBatchLen + 1} {
		msgs := make([]proto.Message, n)
		for i := range msgs {
			msgs[i] = sub
		}
		checkAgainstReference(t, p, msgs)
		if d, _ := packDatagrams(p, msgs); len(d) != (n+MaxBatchLen-1)/MaxBatchLen {
			t.Fatalf("%d frames left in %d datagrams", n, len(d))
		}
	}
}

// TestEncodeBatchMatchesReference: EncodeBatch is the Packer without a
// budget, so it must equal PackFrames over reference frames, past 64 KB too.
func TestEncodeBatchMatchesReference(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		var msgs []proto.Message
		var frames [][]byte
		for i := 0; i < 2+r.Intn(6); i++ {
			m := proto.Message{Kind: proto.RetransmitReplyMsg, From: 1, To: 2,
				Reply: []proto.Event{{ID: proto.EventID{Origin: 1, Seq: uint32(i + 1)}, Payload: make([]byte, r.Intn(30000))}}}
			f, err := refEncode(m)
			if err != nil {
				t.Fatal(err)
			}
			msgs, frames = append(msgs, m), append(frames, f)
		}
		want, err := PackFrames(frames)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeBatch(msgs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: EncodeBatch differs from PackFrames over %d frames", round, len(frames))
		}
	}
	if _, err := EncodeBatch(make([]proto.Message, MaxBatchLen+1)); err == nil {
		t.Error("EncodeBatch accepted more than MaxBatchLen messages")
	}
}
