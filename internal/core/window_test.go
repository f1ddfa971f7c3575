package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// TestEngineWindowsMatchReference drives engines with random receptions and
// holds what they deliver, advertise and serve to a reference kept beside
// them: the list of every delivery, in order. The engine must deliver
// exactly the notifications the reference does not know — every one ever
// delivered with the dedup memory or the compact digest, the newest
// |eventIds|m without them — and after every reception:
//
//   - the flat digest it gossips (a tick every reception) is the ids of the
//     newest |eventIds|m deliveries, oldest first, and DigestLen their
//     number;
//   - a retransmission request, short or long, is answered from the newest
//     ArchiveSize deliveries alone: each id once, in the order the request
//     first names it, with the payload of its newest delivery (the very
//     bytes delivered), and every other id counted as a miss.
//
// Receptions mix fresh notifications from five origins with repeats of ids
// sent before, each repeat carrying a payload of its own: inside the window
// a repeat is a duplicate, and without the dedup memory one from past the
// window is delivered again, so the ring holds two copies of it and the
// newer must answer. ArchiveSize runs over 0, 30, 60 (|eventIds|m) and 200.
func TestEngineWindowsMatchReference(t *testing.T) {
	t.Parallel()
	for _, mode := range []DigestMode{FlatDigest, CompactDigest} {
		for _, dedup := range []bool{true, false} {
			for _, archive := range []int{0, 30, 60, 200} {
				t.Run(fmt.Sprintf("%v/dedup=%v/archive=%d", mode, dedup, archive), func(t *testing.T) {
					t.Parallel()
					cfg := DefaultConfig()
					cfg.DigestMode, cfg.DedupMemory, cfg.ArchiveSize = mode, dedup, archive
					checkWindows(t, cfg, uint64(archive)+7)
				})
			}
		}
	}
}

func checkWindows(t *testing.T, cfg Config, seed uint64) {
	var got []proto.Event // what the engine delivered, in order
	e, err := New(1, cfg, func(ev proto.Event) { got = append(got, ev) }, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	e.Seed([]proto.ProcessID{2, 3, 4})
	r := rng.New(seed + 1)
	var (
		ref    []proto.Event // the reference: every delivery, in order
		sent   []proto.EventID
		seqs   [5]uint32
		redone int // deliveries of an id delivered before
	)
	newest := func(w int) []proto.Event { return ref[len(ref)-max(0, min(w, len(ref))):] }
	knows := func(id proto.EventID) bool {
		all := ref
		if cfg.DigestMode == FlatDigest && !cfg.DedupMemory {
			all = newest(cfg.MaxEventIDs)
		}
		return slices.ContainsFunc(all, func(ev proto.Event) bool { return ev.ID == id })
	}
	for round := uint64(1); round <= 120; round++ {
		g := &proto.Gossip{From: 2}
		for k := r.Intn(12); k > 0; k-- {
			var id proto.EventID
			if len(sent) > 0 && r.Intn(3) == 0 {
				id = sent[r.Intn(len(sent))]
			} else {
				o := r.Intn(len(seqs))
				seqs[o]++
				id = proto.EventID{Origin: proto.ProcessID(10 + o), Seq: seqs[o]}
				sent = append(sent, id)
			}
			g.Events = append(g.Events, proto.Event{ID: id, Payload: []byte{byte(round), byte(k)}})
		}
		before := len(got)
		var want []proto.Event
		for _, ev := range g.Events {
			if !knows(ev.ID) {
				if slices.ContainsFunc(ref, func(d proto.Event) bool { return d.ID == ev.ID }) {
					redone++
				}
				ref = append(ref, ev)
				want = append(want, ev)
			}
		}
		e.HandleMessageAppend(proto.Message{Kind: proto.GossipMsg, From: 2, To: 1, Gossip: g}, round, nil)
		if !slices.EqualFunc(got[before:], want, func(a, b proto.Event) bool { return a.ID == b.ID && slices.Equal(a.Payload, b.Payload) }) {
			t.Fatalf("round %d: delivered %v, reference %v", round, got[before:], want)
		}
		ref = append(ref[:len(ref)-len(want)], got[before:]...) // the engine's copies, to compare addresses

		if cfg.DigestMode == FlatDigest {
			var wantDigest []proto.EventID
			for _, ev := range newest(cfg.MaxEventIDs) {
				wantDigest = append(wantDigest, ev.ID)
			}
			gossip := e.TickAppend(round, nil)
			if len(gossip) == 0 || !slices.Equal(gossip[0].Gossip.Digest, wantDigest) {
				t.Fatalf("round %d: gossip %v, reference digest %v", round, gossip, wantDigest)
			}
			if e.DigestLen() != len(wantDigest) {
				t.Fatalf("round %d: DigestLen %d, reference %d", round, e.DigestLen(), len(wantDigest))
			}
		}

		// A request of 1 to 40 ids: delivered ones, newest or not, and some
		// never sent, with repeats.
		var req []proto.EventID
		for k := 1 + r.Intn(40); k > 0; k-- {
			switch c := r.Intn(8); {
			case c == 0 || len(ref) == 0:
				req = append(req, proto.EventID{Origin: 99, Seq: uint32(1 + r.Intn(9))})
			case c < 4:
				req = append(req, ref[len(ref)-1-r.Intn(min(len(ref), 60))].ID)
			default:
				req = append(req, ref[r.Intn(len(ref))].ID)
			}
		}
		var wantReply []proto.Event
		wantMisses := 0
		for _, id := range req {
			win := newest(cfg.ArchiveSize)
			i := len(win) - 1
			for ; i >= 0 && win[i].ID != id; i-- {
			}
			if i < 0 {
				wantMisses++
			} else if !slices.ContainsFunc(wantReply, func(ev proto.Event) bool { return ev.ID == id }) {
				wantReply = append(wantReply, win[i])
			}
		}
		stats := e.Stats()
		out := e.HandleMessageAppend(proto.Message{Kind: proto.RetransmitRequestMsg, From: 3, To: 1, Request: req}, round, nil)
		var reply []proto.Event
		if len(out) == 1 {
			reply = out[0].Reply
		}
		if len(out) > 1 || !slices.EqualFunc(reply, wantReply, func(a, b proto.Event) bool {
			return a.ID == b.ID && len(a.Payload) == len(b.Payload) && &a.Payload[0] == &b.Payload[0]
		}) {
			t.Fatalf("round %d: request %v answered %v, reference %v", round, req, out, wantReply)
		}
		if s := e.Stats(); s.RetransmitServed-stats.RetransmitServed != uint64(len(wantReply)) || s.RetransmitMisses-stats.RetransmitMisses != uint64(wantMisses) {
			t.Fatalf("round %d: served %d and missed %d, reference %d and %d", round,
				s.RetransmitServed-stats.RetransmitServed, s.RetransmitMisses-stats.RetransmitMisses, len(wantReply), wantMisses)
		}
	}
	if wantRedone := cfg.DigestMode == FlatDigest && !cfg.DedupMemory; (redone > 0) != wantRedone {
		t.Fatalf("%d re-deliveries after eviction, want some: %v", redone, wantRedone)
	}
}
