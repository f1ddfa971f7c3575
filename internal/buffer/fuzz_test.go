package buffer

import (
	"testing"

	"repro/internal/proto"
)

// FuzzCompactDigest checks the property the oracle checks, on sequences the
// fuzzer writes: for any list of adds, membership questions and batched
// reads, over a few origins, with sequence numbers around the origin's
// watermark and 2^40 past it, the table SHALL answer as the map of maps
// does — every Add, every Contains around the id, Watermark, Origins,
// SparseLen, Summary, and AppendMissing over every id named so far.
//
// The input is an op list of two bytes each. Byte 0: bits 0–2 pick the
// origin (NilProcess, which is refused, two that share a home slot, two
// that share their low bits, the largest id), bits 3–4 the op (0, 1 add;
// 2 contains; 3 append-missing). Byte 1 places the sequence number against
// the origin's current watermark: below 192 it is watermark-64+b (seq 0 when
// that would be negative), so either side of the watermark, the whole
// window and its far edge; from 192 it is watermark+2^40+b-192, sixty-four
// ids only the overflow set can hold, near enough each other to repeat.
func FuzzCompactDigest(f *testing.F) {
	origins := [8]proto.ProcessID{proto.NilProcess, 1, sharedHome(1), sharedHome(2), 1 << 32, 2 << 32, 7, ^proto.ProcessID(0)}
	const add, contains, missing = 0, 2, 3
	op := func(kind, origin int, b byte) []byte { return []byte{byte(kind<<3 | origin), b} }

	// The oracle's scripted sequence (twoFarSets): two origins sharing a home
	// hold 70, 71 and 2^40, then one delivers 1..7 and absorbs two of them.
	var two []byte
	for _, b := range []byte{64 + 70, 64 + 71, 192} {
		two = append(append(two, op(add, 2, b)...), op(add, 3, b)...)
	}
	for seq := 1; seq <= 7; seq++ {
		two = append(two, op(add, 2, 65)...) // watermark+1
	}
	f.Add(append(two, op(missing, 0, 0)...))

	// TestCompactDigestWindowEdges' walk: seq 0, ten in order, the window's
	// last positions, the first two overflow positions and 2^40 (each twice),
	// the window filled, then the one delivery that absorbs it all.
	edges := op(add, 1, 64)
	for seq := 1; seq <= 10; seq++ {
		edges = append(edges, op(add, 1, 65)...)
	}
	for _, b := range []byte{64 + 63, 64 + 64, 64 + 65, 192} {
		edges = append(append(edges, op(add, 1, b)...), op(add, 1, b)...)
	}
	for past := 2; past <= 66; past++ {
		edges = append(edges, op(add, 1, byte(64+past))...)
	}
	edges = append(edges, op(contains, 1, 192)...)
	f.Add(append(append(edges, op(add, 1, 65)...), op(missing, 1, 0)...))

	// Every origin once, far first, so the table grows around overflow sets.
	var grow []byte
	for o := range origins {
		grow = append(append(grow, op(add, o, 200)...), op(add, o, 65)...)
	}
	f.Add(append(grow, op(missing, 0, 0)...))

	f.Fuzz(func(t *testing.T, ops []byte) {
		p := digestPair{t: t}
		var named []proto.EventID
		for ; len(ops) >= 2; ops = ops[2:] {
			id := proto.EventID{Origin: origins[ops[0]&7]}
			switch wm, b := p.want.Watermark(id.Origin), uint64(ops[1]); {
			case b >= 192:
				id.Seq = wm + 1<<40 + b - 192
			case wm+b >= 64:
				id.Seq = wm + b - 64
			}
			named = append(named, id)
			switch ops[0] >> 3 & 3 {
			case contains:
				p.op++
				if g, w := p.got.Contains(id), p.want.Contains(id); g != w {
					t.Fatalf("op %d: Contains(%v) = %v, reference %v", p.op, id, g, w)
				}
			case missing:
				p.op++
				p.checkMissing(named)
			default:
				p.add(id, true)
			}
		}
	})
}

// FuzzArchive checks the archive against the slice that defines it
// (refArchive, through fifoPair) on op lists the fuzzer writes: a repeated
// Store appends a newer copy. After every Store and on every Lookup, Len,
// oldest-first order, the window reads (AppendNewest, ContainsNewest) at
// both windows and beside them, the event each Lookup returns (the
// reference's newest copy, its very payload, nil for an empty one), Serve of
// every id held or just lost, one at a time and all at once past
// serveScanMax, and the side ring — nil until the first payload is
// accepted, then as long as the id ring and empty outside the live
// window — SHALL agree.
//
// Byte 0 of the input picks the serving bound (archiveBounds, b%10) and the
// other window (archiveWindows, b/10%4); then come ops of two bytes. Byte 0: bits 0–1 the op (0, 1 store; 2 lookup; 3 a run of 1+b%64
// fresh stores, which grows and wraps the ring), bits 2–3 the payload (nil;
// empty; 1+b%100 bytes), bits 4–7 the id (below 12 the next fresh one, from
// 12 the b%seq-th one stored so far: held, or long evicted). Byte 1 is b.
func FuzzArchive(f *testing.F) {
	archiveBounds := []int{-1, 0, 1, 2, 3, 7, 8, 9, 60, 200}
	archiveWindows := []int{0, 3, 60, 300}
	const store, lookup, run = 0, 2, 3
	const none, empty, bytes = 0, 1, 2
	const fresh, again = 0, 12
	op := func(kind, payload, id int, b byte) []byte { return []byte{byte(id<<4 | payload<<2 | kind), b} }

	// A full archive of 200 that wraps before its first payload, then a mix.
	wrap := []byte{9}
	for i := 0; i < 4; i++ {
		wrap = append(wrap, op(run, none, fresh, 63)...)
	}
	wrap = append(append(append(wrap, op(store, bytes, fresh, 63)...), op(run, bytes, fresh, 40)...), op(store, empty, fresh, 0)...)
	wrap = append(append(append(wrap, op(store, bytes, again, 255)...), op(lookup, none, again, 7)...), op(run, none, fresh, 63)...)
	f.Add(wrap)
	// The first payload on each growth step of a ring bounded at 8 (9 slots).
	grow := []byte{6}
	for _, k := range []int{none, bytes, none, bytes, empty, none, bytes, none, none, bytes} {
		grow = append(grow, op(store, k, fresh, 0)...)
	}
	f.Add(append(grow, op(lookup, none, again, 3)...))
	// A bound of 1: every store evicts, repeats of held and evicted ids.
	f.Add([]byte{2, op(store, bytes, fresh, 9)[0], 9, op(store, bytes, again, 0)[0], 0, op(run, bytes, fresh, 5)[0], 5, op(store, none, again, 1)[0], 1})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		b0 := int(ops[0])
		p := newFIFOPair(t, 0, archiveBounds[b0%len(archiveBounds)], archiveWindows[b0/len(archiveBounds)%len(archiveWindows)])
		next := uint64(0)
		event := func(a, b byte, anew bool) proto.Event {
			seq := next + 1
			if !anew && a>>4 >= again && next > 0 {
				seq = 1 + uint64(b)%next
			}
			ev := proto.Event{ID: proto.EventID{Origin: proto.ProcessID(1 + seq%3), Seq: seq}}
			switch a >> 2 & 3 {
			case none:
			case empty:
				ev.Payload = []byte{}
			default:
				ev.Payload = make([]byte, 1+int(b)%100)
			}
			return ev
		}
		for ops = ops[1:]; len(ops) >= 2; ops = ops[2:] {
			a, b := ops[0], ops[1]
			switch a & 3 {
			case lookup:
				p.op++
				p.check(event(a, b, false).ID)
			case run:
				for i := 0; i <= int(b)%64; i++ {
					ev := event(a, b, true)
					next = ev.ID.Seq
					p.store(ev)
				}
			default:
				ev := event(a, b, false)
				next = max(next, ev.ID.Seq)
				p.store(ev)
			}
		}
	})
}
