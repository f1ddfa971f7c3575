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
