package buffer

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// The references below are the digest and the IDBuffer as they stood before
// the flat table and the ring — a Go map of origins each holding a Go map of
// sparse sequence numbers, and a KeyedList truncated from the front by
// memmove, kept verbatim (only renamed; the digest has since gained two
// rules, the bound on ids far ahead and the fold of a full list (settle),
// marked where they sit, and lists what a
// gossip carries, appendLists, where it had a per-origin summary) — and the
// archive's contract as a plain slice of events. They define what the fast
// forms must answer — every result, every order — and are trivially right.
// Do not optimise them.
//
// Mutations of the fast forms these tests were seen to catch, each with a
// printed seed: the backward shift's range test made strict or not cyclic;
// an evicted entry left in the index (the probe for the next free position
// then never ends); the index not rebuilt when the ring is re-laid, or not
// told of one Add; the small-mode scan started at position 0 instead of at
// head; the wrapped AppendItems one entry short; the window not shifted
// when the watermark advances; the overflow set not drained into the slid
// window; the window one position too long in Add or too short in
// Contains; a duplicate accepted into the overflow set; AppendSparse's
// list out of order; an origin lost in table growth. Two that only cost
// time pass, as they should: absorbing one position per loop turn, and
// searching the index for a ring position from 0 instead of from its home.
//
// Of the batched read, AppendMissing: the home slot's copy trusted without
// comparing its origin (caught by the origins made to share a home slot);
// the watermark compare one too generous; seq 0 or origin 0 offered as
// missing; a block of 64 that consumes 63 ids; what dst held overwritten;
// the unallocated table offering nothing. Three that only cost time pass,
// as they should, since whatever a copy does not settle goes back to
// Contains: the watermark compare made strict, the copy taken of a
// neighbouring slot, and the later blocks of a long list resolved against
// the first block's copies (a copy whose origin matches is that origin's
// slot, whenever it was made).
//
// Of the tables of any length (the digest's slots, the FIFO's ring and
// index): a home computed with the shift that suited a power of two, in
// find or in AppendMissing alone (an index past the table's end at the
// first length that is no power of two: 7 slots, 30 index entries); the
// probe's wrap off by one in either direction, in the digest, in the
// index's find and in unindex (past the end, or the last position never
// probed); pos wrapping at p > len; the overflow set looked up for another
// origin than the id's in Add, Contains or AppendSparse, or drained for every
// origin when one absorbs (twoFarSets: the idle origin's set moves);
// NilProcess accepted; the load bound raised to 7/8 (TestDigestBytesPerOrigin);
// unindex's distance compare made strict, made linear instead of cyclic, or
// dropped (TestFIFOIndexWrap at 30 and 402 entries: an entry displaced past
// the index's end becomes unreachable); AddBounded's bound applied to a ring
// already at it, so clamped below Len (TestFIFOBounded: two entries in one
// slot), or ignored; the index entry not looked up again
// after a growth rebuilt the index (the next probe never ends). One that
// only costs time passes, as it should: AppendMissing loading the slot
// after the home slot.
//
// Of the archive, against refArchive: the wrapped rest of the ring not
// scanned (TestArchiveServe); Serve's table keeping the older copy of an id
// stored twice; the served mark not set in the table, or the short path's
// repeat check dropped; AppendNewest one short; Lookup or Serve reading the
// whole ring where the serving window is shorter (TestArchiveWindows); the
// side ring grown without its entries; a payload left at a position a
// payload-less event overwrote (TestArchiveEvictionReleasesPayloads). In
// internal/core, TestEngineWindowsMatchReference catches the digest one id
// long, the flat window's membership one id short, and the ring built
// without the eventIds window.
//
// Of the side map and the overflow list's bound: an origin's entry kept
// after its gap closed (the side-map check in add); maxFar ignored, the
// newcomer dropped where a kept id lies further, or an id past a full list
// reported new and not kept (fullFarList, TestHostileFarAheadBounded, and
// in internal/core TestHostileFarAheadDeliveredOnce: delivered 22 times);
// the list's storage not reused when it evicts (TestHostileFarAheadBounded); AppendWatermarks left unsorted; the map's
// last entry deleted instead of the map cleared (TestDigestAheadEntriesLeave).
//
// Of KeyedList's batched truncation (TestKeyedListOracle): the Fenwick
// descent comparing with <=, the tree not updated after a draw, an evictee
// left in the index, and the index kept after a cut to smallMax or under;
// TestHostileUnsubsLeaveNothing (internal/membership) catches the excess
// capacity kept.

type refDigest struct {
	origins map[proto.ProcessID]refOriginDigest
}

type refOriginDigest struct {
	watermark uint64 // all seq in [1..watermark] delivered
	sparse    map[uint64]struct{}
}

func (d *refDigest) Contains(id proto.EventID) bool {
	od, ok := d.origins[id.Origin]
	if !ok {
		return false
	}
	if id.Seq == 0 {
		return false
	}
	if uint64(id.Seq) <= od.watermark {
		return true
	}
	_, ok = od.sparse[uint64(id.Seq)]
	return ok || od.refuses(uint64(id.Seq))
}

// refuses is the one rule added since: while maxFar ids more than 64 past
// the watermark are kept, every seq past the furthest of them counts as
// delivered.
func (od refOriginDigest) refuses(seq uint64) bool {
	far, top := 0, uint64(0)
	for s := range od.sparse {
		if s > od.watermark+64 {
			far++
		}
		top = max(top, s)
	}
	return far == maxFar && seq > top
}

// settle absorbs the sparse entries contiguous with the watermark and
// applies the fold, the rule added last: while maxFar ids lie more than 64
// past the watermark, and the nearest of them lies at most 128 past it or
// the watermark is 0, the watermark moves to just below that nearest id and
// every id under it counts as delivered.
func (od *refOriginDigest) settle() {
	for {
		if _, ok := od.sparse[od.watermark+1]; ok {
			delete(od.sparse, od.watermark+1)
			od.watermark++
			continue
		}
		far, first := 0, uint64(math.MaxUint64)
		for s := range od.sparse {
			if s > od.watermark+64 {
				far++
				first = min(first, s)
			}
		}
		if far != maxFar || od.watermark != 0 && first-od.watermark > 128 {
			return
		}
		for s := range od.sparse {
			if s < first {
				delete(od.sparse, s)
			}
		}
		od.watermark = first - 1
	}
}

func (d *refDigest) Add(id proto.EventID) bool {
	if id.Seq == 0 {
		return false
	}
	od := d.origins[id.Origin] // zero value for a new origin
	seq := uint64(id.Seq)
	if seq <= od.watermark {
		return false
	}
	if _, dup := od.sparse[seq]; dup {
		return false
	}
	if od.refuses(seq) {
		return false
	}
	if seq == od.watermark+1 {
		od.watermark++
	} else {
		if od.sparse == nil {
			od.sparse = make(map[uint64]struct{})
		}
		od.sparse[seq] = struct{}{}
		// The rule's other half: past maxFar such ids the furthest goes,
		// and the horizon falls to the new furthest.
		far, top := 0, uint64(0)
		for s := range od.sparse {
			if s > od.watermark+64 {
				far++
			}
			top = max(top, s)
		}
		if far > maxFar {
			delete(od.sparse, top)
		}
	}
	od.settle()
	if d.origins == nil {
		d.origins = make(map[proto.ProcessID]refOriginDigest)
	}
	d.origins[id.Origin] = od
	return true
}

func (d *refDigest) SparseLen() int {
	n := 0
	for _, od := range d.origins {
		n += len(od.sparse)
	}
	return n
}

func (d *refDigest) Origins() int { return len(d.origins) }

func (d *refDigest) Watermark(origin proto.ProcessID) uint64 {
	return d.origins[origin].watermark
}

// appendLists appends the ids above their watermarks to sparse and the
// non-zero watermarks, as ids, to watermarks, each ordered by origin and
// then sequence number.
func (d *refDigest) appendLists(sparse, watermarks []proto.EventID) ([]proto.EventID, []proto.EventID) {
	n, m := len(sparse), len(watermarks)
	for origin, od := range d.origins {
		for s := range od.sparse {
			sparse = append(sparse, proto.EventID{Origin: origin, Seq: uint32(s)})
		}
		if od.watermark > 0 {
			watermarks = append(watermarks, proto.EventID{Origin: origin, Seq: uint32(od.watermark)})
		}
	}
	byID := func(a, b proto.EventID) bool { return a.Origin < b.Origin || a.Origin == b.Origin && a.Seq < b.Seq }
	sort.Slice(sparse[n:], func(i, j int) bool { return byID(sparse[n+i], sparse[n+j]) })
	sort.Slice(watermarks[m:], func(i, j int) bool { return byID(watermarks[m+i], watermarks[m+j]) })
	return sparse, watermarks
}

// refTruncateOldest is KeyedList.TruncateOldestDiscard as it stood.
func refTruncateOldest[K comparable, V any](l *KeyedList[K, V], max int) int {
	if max < 0 {
		max = 0
	}
	if len(l.items) <= max {
		return 0
	}
	n := len(l.items) - max
	for _, v := range l.items[:n] {
		delete(l.idx, l.key(v))
	}
	l.items = append(l.items[:0], l.items[n:]...)
	return n
}

type refIDBuffer struct {
	inner KeyedList[proto.EventID, proto.EventID]
}

func (b *refIDBuffer) Add(id proto.EventID) bool      { return b.inner.Add(id) }
func (b *refIDBuffer) Contains(id proto.EventID) bool { return b.inner.Contains(id) }
func (b *refIDBuffer) Len() int                       { return b.inner.Len() }
func (b *refIDBuffer) AppendIDs(dst []proto.EventID) []proto.EventID {
	return b.inner.AppendItems(dst)
}
func (b *refIDBuffer) TruncateOldestDiscard(max int) int { return refTruncateOldest(&b.inner, max) }

// refArchive is the archive's contract as a slice of events: every Store
// appends, held id or not; the slice keeps its newest hold entries; Lookup
// answers with the newest copy among the newest serve; Serve is one Lookup
// per id of the request, each id answered once and each miss counted.
type refArchive struct {
	events      []proto.Event
	serve, hold int
}

func (a *refArchive) Store(e proto.Event) {
	if a.hold <= 0 {
		return
	}
	a.events = append(a.events, e)
	if len(a.events) > a.hold {
		a.events = slices.Delete(a.events, 0, 1)
	}
}

// newest returns the newest w events, oldest first.
func (a *refArchive) newest(w int) []proto.Event {
	return a.events[len(a.events)-max(0, min(w, len(a.events))):]
}

func (a *refArchive) ContainsNewest(id proto.EventID, w int) bool {
	return slices.ContainsFunc(a.newest(w), func(e proto.Event) bool { return e.ID == id })
}

func (a *refArchive) AppendNewest(dst []proto.EventID, w int) []proto.EventID {
	for _, e := range a.newest(w) {
		dst = append(dst, e.ID)
	}
	return dst
}

func (a *refArchive) Lookup(id proto.EventID) (proto.Event, bool) {
	win := a.newest(a.serve)
	for i := len(win) - 1; i >= 0; i-- {
		if win[i].ID == id {
			e := win[i]
			if len(e.Payload) == 0 {
				e.Payload = nil
			}
			return e, true
		}
	}
	return proto.Event{}, false
}

func (a *refArchive) Serve(req []proto.EventID) (reply []proto.Event, misses int) {
	answered := map[proto.EventID]bool{}
	for _, id := range req {
		e, ok := a.Lookup(id)
		switch {
		case !ok:
			misses++
		case !answered[id]:
			answered[id] = true
			reply = append(reply, e)
		}
	}
	return reply, misses
}

func (a *refArchive) Len() int { return len(a.events) }

// digestPair drives a CompactDigest and the reference in lock step.
type digestPair struct {
	t    *testing.T
	seed uint64
	op   int
	got  CompactDigest
	want refDigest

	ids, missing, wantMissing []proto.EventID // the batched read's scratch
}

// narrowHomes is a family of 1 100 origins found by search: the smallest
// whose hashes have their top 12 bits set, so that each has the last slot
// as its home in a table of any length up to 4 096, and a probe from it
// wraps at once.
var narrowHomes = sync.OnceValue(func() []proto.ProcessID {
	var homes []proto.ProcessID
	for o := uint64(1); len(homes) < 1100; o++ {
		if o*hashMul>>52 == 1<<12-1 {
			homes = append(homes, proto.ProcessID(o))
		}
	}
	return homes
})

// narrowHome returns the k-th of narrowHomes.
func narrowHome(k int) proto.ProcessID { return narrowHomes()[k] }

// probe draws n ids for the batched read: around the watermarks of known
// origins — known, missing, in the window, past it, seq 0 — at origins the
// digest has never seen, and, one in six, a repeat of an id drawn already.
func (p *digestPair) probe(r *rng.Source, origins []proto.ProcessID, offsets []uint64, n int) []proto.EventID {
	ids := p.ids[:0]
	for len(ids) < n {
		if len(ids) > 0 && r.Intn(6) == 0 {
			ids = append(ids, ids[r.Intn(len(ids))])
			continue
		}
		id := proto.EventID{Origin: origins[r.Intn(len(origins))]}
		if r.Intn(8) == 0 {
			id.Origin = proto.ProcessID(r.Uint64()) // most likely unseen
		}
		wm := p.want.Watermark(id.Origin)
		switch r.Intn(4) {
		case 0:
			id.Seq = uint32(r.Intn(int(wm) + 2)) // at or below the watermark, 0 included
		default:
			id.Seq = uint32(wm + offsets[r.Intn(len(offsets))])
		}
		ids = append(ids, id)
	}
	p.ids = ids
	return ids
}

// checkMissing compares AppendMissing over ids with one reference Contains
// per id, and checks that what dst held stays in front.
func (p *digestPair) checkMissing(ids []proto.EventID) {
	p.t.Helper()
	kept := proto.EventID{Origin: 1<<31 | 1, Seq: 1<<31 | 1}
	p.missing = p.got.AppendMissing(append(p.missing[:0], kept), ids)
	want := append(p.wantMissing[:0], kept)
	for _, id := range ids {
		if id.Origin != proto.NilProcess && id.Seq != 0 && !p.want.Contains(id) {
			want = append(want, id)
		}
	}
	p.wantMissing = want
	if !slices.Equal(p.missing, want) {
		p.t.Fatalf("seed %d op %d: AppendMissing over %d ids = %v, one Contains per id gives %v (ids %v)",
			p.seed, p.op, len(ids), p.missing[1:], want[1:], ids)
	}
}

// add applies one Add to both and compares everything observable about
// the id and its origin, and that the origin has a side-map entry exactly
// when it has a delivery above its watermark; whole also compares
// SparseLen, AppendSparse and AppendWatermarks, which walk every origin,
// and counts the side map's entries.
func (p *digestPair) add(id proto.EventID, whole bool) {
	p.t.Helper()
	p.op++
	if id.Origin == proto.NilProcess {
		// No id, as seq 0 is none: the table refuses it, and the reference,
		// which predates the rule and would take it, is not asked.
		if p.got.Add(id) || p.got.Contains(id) || p.got.Watermark(id.Origin) != 0 {
			p.t.Fatalf("seed %d op %d: Add(%v) recorded an id of no process", p.seed, p.op, id)
		}
		return
	}
	if g, w := p.got.Add(id), p.want.Add(id); g != w {
		p.t.Fatalf("seed %d op %d: Add(%v) = %v, reference %v", p.seed, p.op, id, g, w)
	}
	// The id itself, its neighbours, the edges of the window and of the
	// overflow set around the origin's watermark, and the last seq.
	wm := p.want.Watermark(id.Origin)
	for _, seq := range []uint64{uint64(id.Seq), uint64(id.Seq) - 1, uint64(id.Seq) + 1, 0, 1, wm, wm + 1, wm + 2, wm + 63, wm + 64, wm + 65, wm + 66, wm + 1<<30, proto.MaxSeq - 1, proto.MaxSeq} {
		if seq > proto.MaxSeq {
			continue
		}
		q := proto.EventID{Origin: id.Origin, Seq: uint32(seq)}
		if g, w := p.got.Contains(q), p.want.Contains(q); g != w {
			p.t.Fatalf("seed %d op %d: after Add(%v) Contains(%v) = %v, reference %v", p.seed, p.op, id, q, g, w)
		}
	}
	if g := p.got.Watermark(id.Origin); uint64(g) != wm {
		p.t.Fatalf("seed %d op %d: Watermark(%d) = %d, reference %d", p.seed, p.op, id.Origin, g, wm)
	}
	if g, w := p.got.Origins(), p.want.Origins(); g != w {
		p.t.Fatalf("seed %d op %d: Origins = %d, reference %d", p.seed, p.op, g, w)
	}
	_, held := p.got.ahead[id.Origin]
	if ahead := len(p.want.origins[id.Origin].sparse) != 0; held != ahead {
		p.t.Fatalf("seed %d op %d: after Add(%v) the side map holds the origin: %v, want %v", p.seed, p.op, id, held, ahead)
	}
	if !whole {
		return
	}
	if g, w := p.got.SparseLen(), p.want.SparseLen(); g != w {
		p.t.Fatalf("seed %d op %d: SparseLen = %d, reference %d", p.seed, p.op, g, w)
	}
	kept := proto.EventID{Origin: 1<<31 | 1, Seq: 1<<31 | 1}
	sparse, watermarks := p.want.appendLists(nil, nil)
	ahead := 0
	for i, id := range sparse {
		if i == 0 || id.Origin != sparse[i-1].Origin {
			ahead++
		}
	}
	if g := p.got.AppendSparse([]proto.EventID{kept}); g[0] != kept || !slices.Equal(g[1:], sparse) {
		p.t.Fatalf("seed %d op %d: AppendSparse = %v, reference %v after %v", p.seed, p.op, g[1:], sparse, kept)
	}
	if g := p.got.AppendWatermarks([]proto.EventID{kept}); g[0] != kept || !slices.Equal(g[1:], watermarks) {
		p.t.Fatalf("seed %d op %d: AppendWatermarks = %v, reference %v after %v", p.seed, p.op, g[1:], watermarks, kept)
	}
	if len(p.got.ahead) != ahead {
		p.t.Fatalf("seed %d op %d: %d side-map entries, %d origins hold ids above their watermark", p.seed, p.op, len(p.got.ahead), ahead)
	}
}

// TestCompactDigestOracle compares the flat table against the map of maps
// after every op of long random sequences. Sequence numbers are drawn
// around each origin's watermark, so that in-order deliveries, window bits
// on either side of the bitmap's last position, the overflow set, its
// migration back into the window, duplicates of all three kinds and seq 0
// all occur; the origin universes run from one origin (origin 0, which is
// refused, among them, ids that share their low bits, and ids that share a
// home slot whatever the table's length) to enough to cross every growth
// step up to a thousand tracked origins: small ids, random ones, ids that
// share a home slot (narrowHome), and ids counting down from 2^32-1 in
// steps that keep their low bits equal. A new origin's first id is past the
// window four times in fifteen, so origins whose only record sits in the
// overflow set are carried through those steps too.
//
// Scripted sequences come first: two origins sharing a home slot both hold
// ids past their windows, one of them absorbs its way up to them, and the
// other's set must not move (twoFarSets); a full overflow list that is
// refused, then folds (fullFarList); and the top of the sequence space
// (topEdge).
//
// Before the first op and after every one the batched read, AppendMissing,
// is compared with one reference Contains per id over a fresh list of ids
// (probe) whose length walks 0, 1, 63, 64, 65 and 200 — nothing, one id, and
// either side of one and of three blocks.
func TestCompactDigestOracle(t *testing.T) {
	t.Parallel()
	offsets := []uint64{1, 1, 1, 1, 2, 2, 3, 5, 17, 63, 64, 65, 66, 130, 1 << 30}
	lengths := []int{0, 1, 63, 64, 65, 200}
	twoFarSets(t)
	fullFarList(t)
	topEdge(t)
	for seed := uint64(161); seed <= 320; seed++ {
		r := rng.New(seed)
		probes := rng.New(seed ^ 0x5eed) // its own stream: the ops stay what they were
		universe := []int{1, 3, 40, 1100}[seed%4]
		origins := make([]proto.ProcessID, universe)
		for i := range origins {
			switch r.Intn(4) {
			case 0:
				origins[i] = proto.ProcessID(i) // origin 0 included
			case 1:
				origins[i] = proto.ProcessID(r.Uint64() >> 32)
			case 2:
				origins[i] = narrowHome(i)
			default:
				origins[i] = proto.ProcessID(math.MaxUint32 - uint64(i)<<20) // equal low bits, 2^32-1 first
			}
		}
		p := digestPair{t: t, seed: seed}
		p.checkMissing(p.probe(probes, origins, offsets, 65)) // the unallocated table
		ops := 400 + 6*universe
		for i := 0; i < ops; i++ {
			origin := origins[r.Intn(universe)]
			wm := p.want.Watermark(origin)
			var seq uint64
			switch r.Intn(12) {
			case 0:
				seq = 0
			case 1:
				seq = 1 + uint64(r.Intn(int(wm)+70)) // anywhere up to just past the window
			default:
				seq = wm + offsets[r.Intn(len(offsets))]
			}
			p.add(proto.EventID{Origin: origin, Seq: uint32(min(seq, proto.MaxSeq))}, universe <= 3 || i%(universe/8) == 0 || i == ops-1)
			p.checkMissing(p.probe(probes, origins, offsets, lengths[i%len(lengths)]))
		}
	}
}

// twoFarSets is the oracle's scripted sequence. Origins a and b share a home
// slot; both record ids 70, 71 and 2^30 before anything else, so each is an
// origin whose only record is its overflow set. Then a delivers 1..7: at
// watermark 6 its window reaches 70, at 7 it reaches 71, and both leave a's
// set while b's, compared in full after every op, stays as it was. Thirty
// more origins then grow the table, from 4 slots to 58, around both.
func twoFarSets(t *testing.T) {
	t.Helper()
	p := digestPair{t: t}
	a, b := narrowHome(1), narrowHome(2)
	for _, seq := range []uint32{70, 71, 1 << 30} {
		p.add(proto.EventID{Origin: a, Seq: seq}, true)
		p.add(proto.EventID{Origin: b, Seq: seq}, true)
	}
	for seq := uint32(1); seq <= 7; seq++ {
		p.add(proto.EventID{Origin: a, Seq: seq}, true)
	}
	for k := 3; k < 33; k++ {
		p.add(proto.EventID{Origin: narrowHome(k), Seq: 1}, true)
	}
	far := map[proto.ProcessID]int{}
	for origin, a := range p.got.ahead {
		far[origin] = len(a.far)
	}
	if len(far) != 2 || far[a] != 1 || far[b] != 3 || p.got.SparseLen() != 6 {
		t.Fatalf("overflow sets hold %v ids (SparseLen %d), want 1 for a (%d), 3 for b (%d), SparseLen 6", far, p.got.SparseLen(), a, b)
	}
}

// fullFarList is the oracle's second scripted sequence: an origin at
// watermark 1 receives 1 100 ids from 300 to 1 399 in an order that mixes
// near and far, so past maxFar each either evicts the furthest kept or lies
// past the full list and is refused; every tenth is sent again. The list
// starts 299 past the watermark, too far to fold. Another origin sharing its
// home holds two ids ahead throughout. Then 2..1 399 arrive in order: at
// watermark 172 the list's first entry, 300, is one window past the window
// and the list folds — the watermark takes in 173..299 unseen and the kept
// list up to 1 323 — whatever was refused is new now, the watermark reaches
// 1 399, and the origin leaves the side map.
func fullFarList(t *testing.T) {
	t.Helper()
	p := digestPair{t: t}
	a, b := narrowHome(3), narrowHome(4)
	p.add(proto.EventID{Origin: b, Seq: 200}, true)
	p.add(proto.EventID{Origin: b, Seq: 1 << 30}, true)
	p.add(proto.EventID{Origin: a, Seq: 1}, true)
	for i := 0; i < 1100; i++ {
		id := proto.EventID{Origin: a, Seq: 300 + uint32(i*37%1100)}
		p.add(id, i%50 == 0 || i >= 1020 && i <= 1030)
		if i%10 == 0 {
			p.add(id, false)
		}
	}
	if !p.got.Contains(proto.EventID{Origin: a, Seq: 1399}) || len(p.got.ahead[a].far) != maxFar {
		t.Fatalf("after 1 100 ids ahead: %d kept, 1399 held %v; want a full list that holds 1399",
			len(p.got.ahead[a].far), p.got.Contains(proto.EventID{Origin: a, Seq: 1399}))
	}
	for seq := uint32(2); seq <= 1399; seq++ {
		p.add(proto.EventID{Origin: a, Seq: seq}, seq%50 == 0 || seq >= 170 && seq <= 174 || seq >= 1322 && seq <= 1326)
	}
	if w := p.got.Watermark(a); w != 1399 || len(p.got.ahead) != 1 {
		t.Fatalf("after the full list: watermark %d, %d side-map entries; want 1399 and b's alone", w, len(p.got.ahead))
	}
}

// topEdge is the oracle's third scripted sequence, at the top of the
// sequence space, where the window's arithmetic would pass 2^32-1; every
// op is compared in full:
//
//   - an origin whose first 1 024 ids, the last up to proto.MaxSeq, fill
//     its overflow list at watermark 0: the list folds, and the watermark
//     rises to MaxSeq with nothing ahead;
//   - an origin whose 1 024 ids in a row fold and absorb to MaxSeq-4, so
//     that ids in order reach MaxSeq on Add's fast path;
//   - an origin folded to MaxSeq-67 that then holds MaxSeq-3 in its
//     window's last bit and MaxSeq-2 and MaxSeq in its overflow list, and
//     absorbs them all as the ids below arrive in order;
//   - the batched read over ids at and around each origin's watermark and
//     the last seq.
func topEdge(t *testing.T) {
	t.Helper()
	p := digestPair{t: t}
	folded, smooth, windowed := narrowHome(0), narrowHome(1), narrowHome(2) // one home slot
	if got := foldStream(&p, folded, proto.MaxSeq-1023, proto.MaxSeq); got != 1024 {
		t.Fatalf("%d of the last 1 024 ids were new", got)
	}
	for seq := uint32(proto.MaxSeq - 1027); seq < proto.MaxSeq-3; seq++ {
		p.add(proto.EventID{Origin: smooth, Seq: seq}, false)
	}
	for seq := uint64(proto.MaxSeq - 3); seq <= proto.MaxSeq; seq++ {
		p.add(proto.EventID{Origin: smooth, Seq: uint32(seq)}, true)
	}
	for seq := uint32(proto.MaxSeq - 1090); seq <= proto.MaxSeq-67; seq++ {
		p.add(proto.EventID{Origin: windowed, Seq: seq}, false)
	}
	if w := p.got.Watermark(windowed); w != proto.MaxSeq-67 {
		t.Fatalf("after the fold: watermark %d, want %d", w, uint32(proto.MaxSeq-67))
	}
	for _, seq := range []uint32{proto.MaxSeq, proto.MaxSeq - 2, proto.MaxSeq - 3} {
		p.add(proto.EventID{Origin: windowed, Seq: seq}, true)
	}
	for seq := uint64(proto.MaxSeq - 66); seq <= proto.MaxSeq; seq++ {
		p.add(proto.EventID{Origin: windowed, Seq: uint32(seq)}, seq%8 == 0 || seq >= proto.MaxSeq-4)
	}
	var ids []proto.EventID
	for _, origin := range []proto.ProcessID{folded, smooth, windowed, 5} {
		wm := p.want.Watermark(origin)
		for _, seq := range []uint64{1, wm - 1, wm, wm + 1, proto.MaxSeq - 1, proto.MaxSeq} {
			ids = append(ids, proto.EventID{Origin: origin, Seq: uint32(seq)})
		}
	}
	p.checkMissing(ids)
	for _, origin := range []proto.ProcessID{folded, smooth, windowed} {
		if w := p.got.Watermark(origin); w != proto.MaxSeq || p.got.holdsAhead(origin) {
			t.Fatalf("origin %d: watermark %d, ids ahead %v; want MaxSeq and none", origin, w, p.got.holdsAhead(origin))
		}
	}
}

// foldStream sends origin a the ids from..to in order, each Add compared
// with the reference, and counts the ones that were new.
func foldStream(p *digestPair, a proto.ProcessID, from, to uint64) int {
	p.t.Helper()
	fresh := 0
	for seq := from; seq <= to; seq++ {
		id := proto.EventID{Origin: a, Seq: uint32(seq)}
		if p.got.Contains(id) {
			p.t.Fatalf("%v held before it arrived", id)
		}
		g, w := p.got.Add(id), p.want.Add(id)
		if g != w {
			p.t.Fatalf("Add(%v) = %v, reference %v", id, g, w)
		}
		if g {
			fresh++
		}
		p.add(id, seq%100 == 0) // the repeat: compared, and new to neither
		if !p.got.Contains(id) || p.got.Add(id) {
			p.t.Fatalf("%v new after it arrived", id)
		}
	}
	return fresh
}

// TestCompactDigestPermanentGap: behind a hole that never fills — seq 1, or
// seq 5 after 1..4 — every later id of 3 000 is new exactly once. Without
// the fold the window and a full list took the first 1 087 and every later
// one was refused: the origin went deaf. The watermark passes over the hole
// when the list fills, and the side map is empty at the end.
func TestCompactDigestPermanentGap(t *testing.T) {
	t.Parallel()
	for _, hole := range []uint64{1, 5} {
		p := digestPair{t: t}
		a := narrowHome(7)
		p.add(proto.EventID{Origin: narrowHome(8), Seq: 70}, true) // a neighbour ahead throughout
		if foldStream(&p, a, 1, hole-1) != int(hole-1) {
			t.Fatalf("hole %d: the ids before it were not all new", hole)
		}
		if got := foldStream(&p, a, hole+1, hole+3000); got != 3000 {
			t.Fatalf("hole %d: %d of the 3 000 ids after it were new", hole, got)
		}
		if w := p.got.Watermark(a); uint64(w) != hole+3000 || len(p.got.ahead) != 1 {
			t.Fatalf("hole %d: watermark %d, %d side-map entries; want %d and the neighbour's alone", hole, w, len(p.got.ahead), hole+3000)
		}
		if !p.got.Contains(proto.EventID{Origin: a, Seq: uint32(hole)}) {
			t.Fatalf("hole %d: the hole is not counted as delivered", hole)
		}
		p.add(proto.EventID{Origin: a, Seq: uint32(hole)}, true)
	}
}

// TestCompactDigestFirstHeardMidStream: an origin first heard at seq 500 —
// a process that joins late — takes every later id of 3 000 exactly once.
// Its stream fills the list from 500, far past the window's reach, and the
// list folds at once, as the origin has never delivered in order: the
// watermark starts just below its first id. Ids before it count as
// delivered from then on.
func TestCompactDigestFirstHeardMidStream(t *testing.T) {
	t.Parallel()
	p := digestPair{t: t}
	a := narrowHome(9)
	if got := foldStream(&p, a, 500, 3499); got != 3000 {
		t.Fatalf("%d of the 3 000 ids from 500 were new", got)
	}
	if w := p.got.Watermark(a); w != 3499 || len(p.got.ahead) != 0 {
		t.Fatalf("watermark %d, %d side-map entries; want 3499 and none", w, len(p.got.ahead))
	}
	for _, seq := range []uint32{1, 64, 499} {
		p.add(proto.EventID{Origin: a, Seq: seq}, true)
	}
}

// TestSharedHomeOrigins pins what the oracle's third kind of origin is for:
// the family really does collide, in a table of every length up to 4096
// slots — past what a thousand origins grow it to.
func TestSharedHomeOrigins(t *testing.T) {
	for n := 1; n <= 4096; n++ {
		home := homeSlot(narrowHome(0), n)
		if home >= uint64(n) {
			t.Fatalf("home slot %d in a table of %d", home, n)
		}
		for k := 1; k < 1100; k++ {
			if h := homeSlot(narrowHome(k), n); h != home {
				t.Fatalf("narrowHome(%d) has home slot %d of %d, narrowHome(0) has %d", k, h, n, home)
			}
		}
	}
	if narrowHome(0) == proto.NilProcess {
		t.Fatalf("narrowHome starts at origin 0")
	}
}

// TestAppendMissingAllocs: with a retained dst the batched read allocates
// nothing, whatever the digest answers.
func TestAppendMissingAllocs(t *testing.T) {
	var d CompactDigest
	ids := make([]proto.EventID, 200)
	for i := range ids {
		ids[i] = proto.EventID{Origin: proto.ProcessID(1 + i%50), Seq: uint32(1 + i%7)}
		if i%3 != 0 {
			d.Add(ids[i])
		}
	}
	d.Add(proto.EventID{Origin: 9, Seq: 1 << 20}) // one origin with an overflow set
	dst := d.AppendMissing(nil, ids)
	if len(dst) == 0 || len(dst) == len(ids) {
		t.Fatalf("%d of %d ids missing: the list should mix both answers", len(dst), len(ids))
	}
	if allocs := testing.AllocsPerRun(100, func() { dst = d.AppendMissing(dst[:0], ids) }); allocs != 0 {
		t.Errorf("AppendMissing with a retained dst allocates %v times per call, want 0", allocs)
	}
}

// TestDigestEmissionAllocs: with a retained dst, the two lists a compact
// gossip carries — the ids above their watermarks and the watermarks —
// cost no allocation, with gaps in 35 of 250 origins and an overflow id
// present; built from a per-origin summary they cost one per origin and
// one more.
func TestDigestEmissionAllocs(t *testing.T) {
	var d CompactDigest
	for o := 1; o <= 250; o++ {
		for seq := uint32(1); seq <= 8; seq++ {
			if o%7 != 0 || seq != 4 {
				d.Add(proto.EventID{Origin: proto.ProcessID(o), Seq: seq})
			}
		}
	}
	d.Add(proto.EventID{Origin: 9, Seq: 1 << 20})
	sparse, watermarks := d.AppendSparse(nil), d.AppendWatermarks(nil)
	if len(sparse) != 35*4+1 || len(watermarks) != 250 {
		t.Fatalf("%d ids ahead and %d watermarks, want 141 and 250", len(sparse), len(watermarks))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sparse = d.AppendSparse(sparse[:0])
		watermarks = d.AppendWatermarks(watermarks[:0])
	}); allocs != 0 {
		t.Errorf("AppendSparse and AppendWatermarks with retained lists allocate %v times per call, want 0", allocs)
	}
}

// TestCompactDigestWindowEdges walks the boundaries by hand: the window's
// first and last positions, the first overflow position, and one absorption
// that crosses the bitmap boundary and pulls the overflow set back in.
func TestCompactDigestWindowEdges(t *testing.T) {
	t.Parallel()
	for _, origin := range []proto.ProcessID{narrowHome(0), 7} {
		p := digestPair{t: t}
		id := func(seq uint32) proto.EventID { return proto.EventID{Origin: origin, Seq: seq} }
		p.add(id(0), true)
		for seq := uint32(1); seq <= 10; seq++ {
			p.add(id(seq), true) // watermark 10
		}
		for _, past := range []uint32{63, 64, 65, 1 << 30} {
			p.add(id(10+past), true)
			p.add(id(10+past), true) // duplicate in window, at its edge, in the overflow set
		}
		for seq := uint32(12); seq <= 10+66; seq++ {
			p.add(id(seq), true) // fills the window and two overflow positions
		}
		// One delivery absorbs all 64 window positions; the slide must take
		// 75 and 76 out of the overflow set and absorb them too.
		p.add(id(11), true)
		if got := p.got.Watermark(origin); got != 76 {
			t.Fatalf("origin %d: watermark %d after the absorbing delivery, want 76", origin, got)
		}
		if got := p.got.SparseLen(); got != 1 { // 10 + 2^30 stays out of reach
			t.Fatalf("origin %d: SparseLen %d, want 1", origin, got)
		}
	}
}

// refTruncateRandom is PIDList.TruncateRandomDiscard as it stood: one draw,
// one order-preserving delete, until the bound holds. Kept verbatim; it
// defines the draws, the victims and the order the batched form must leave.
func refTruncateRandom(items []proto.ProcessID, max int, r *rng.Source) ([]proto.ProcessID, int) {
	if max < 0 {
		max = 0
	}
	n := 0
	for len(items) > max {
		i := r.Intn(len(items))
		items = append(items[:i], items[i+1:]...)
		n++
	}
	return items, n
}

// TestPIDListTruncateOracle compares the draws-first truncation with the
// per-eviction loop on every length from 0 to 130 — both sides of batchMax,
// so both of its paths — against every bound from -1 to one past the length:
// what is left, in which order, the count returned and the stream's position
// after each call. The same list is then refilled and truncated again, so a
// call also meets whatever the one before left past the list's end.
//
// Mutations seen caught, each printing its seed, length and bound: the batch
// taken at 65 entries (the bound at batchMax+1); a draw taken with Intn(n) or
// Intn(n-j-1) instead of Intn(n-j); the shift one word short, its last word
// loaded from the wrong offset, or the whole shift taken from pos[i:] (nothing
// deleted); the last survivor swapped into the hole instead of the rest
// shifted (order lost); the survivors gathered from the last to the first, so
// that a slot is read after it was written; the count returned as max. Two
// pass, as they should, since they cost time only: the bound at batchMax-1,
// and a single eviction sent through the batch.
func TestPIDListTruncateOracle(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 6; seed++ {
		gen := rng.New(seed)
		var l PIDList
		for length := 0; length <= 130; length++ {
			for max := -1; max <= length+1; max++ {
				l.items = l.items[:0]
				for i := 0; i < length; i++ {
					l.items = append(l.items, proto.ProcessID(1+gen.Intn(25000))<<8|proto.ProcessID(i))
				}
				want := slices.Clone(l.items)
				state := gen.Uint64()
				r, ref := rng.New(state), rng.New(state)
				got := l.TruncateRandomDiscard(max, r)
				want, wantN := refTruncateRandom(want, max, ref)
				if got != wantN || !slices.Equal(l.items, want) || r.State() != ref.State() {
					t.Fatalf("seed %d length %d max %d: removed %d leaving %v at rng state %#x, reference removed %d leaving %v at %#x",
						seed, length, max, got, l.items, r.State(), wantN, want, ref.State())
				}
			}
		}
	}
}

// TestPIDListTruncateAllocs: neither path of the truncation allocates.
func TestPIDListTruncateAllocs(t *testing.T) {
	for _, length := range []int{47, batchMax, batchMax + 1, 130} {
		var l PIDList
		l.Grow(length)
		r := rng.New(uint64(length))
		if allocs := testing.AllocsPerRun(100, func() {
			for i := l.Len(); i < length; i++ {
				l.items = append(l.items, proto.ProcessID(i+1))
			}
			l.TruncateRandomDiscard(15, r)
		}); allocs != 0 {
			t.Errorf("TruncateRandomDiscard from %d entries allocates %v times per call, want 0", length, allocs)
		}
	}
}

// fifoPair drives an IDBuffer and an Archive fed the same ids, and their
// references, in lock step.
type fifoPair struct {
	t       *testing.T
	seed    uint64
	op      int
	ids     IDBuffer
	refIDs  refIDBuffer
	arch    Archive
	refArch refArchive
	window  int  // the archive's second window (Init's window), read as eventIds is
	paid    bool // the archive has accepted a non-empty payload

	heldIDs, heldArch []proto.EventID // what each held before this op
}

// newFIFOPair pairs an IDBuffer with an archive that serves its newest serve
// notifications and holds the newest max(serve, window).
func newFIFOPair(t *testing.T, seed uint64, serve, window int) *fifoPair {
	p := &fifoPair{t: t, seed: seed, window: window}
	p.ids.Init()
	p.refIDs.inner.Init(idKey)
	p.arch.Init(serve, window)
	p.refArch.serve, p.refArch.hold = serve, max(serve, window)
	return p
}

func eventOf(id proto.EventID) proto.Event {
	return proto.Event{ID: id, Payload: []byte{byte(id.Seq), byte(id.Origin)}}
}

// add offers id to the IDBuffer, which refuses one it holds, and stores it
// in the archive, which appends it all the same.
func (p *fifoPair) add(id proto.EventID) {
	p.t.Helper()
	p.op++
	if g, w := p.ids.Add(id), p.refIDs.Add(id); g != w {
		p.t.Fatalf("seed %d op %d: IDBuffer.Add(%v) = %v, reference %v", p.seed, p.op, id, g, w)
	}
	p.storeBoth(eventOf(id))
	p.check(id)
}

// store archives ev alone.
func (p *fifoPair) store(ev proto.Event) {
	p.t.Helper()
	p.op++
	p.storeBoth(ev)
	p.check(ev.ID)
}

// storeBoth hands the same event, payload and all, to both archives.
func (p *fifoPair) storeBoth(ev proto.Event) {
	p.arch.Store(ev)
	p.refArch.Store(ev)
	p.paid = p.paid || p.refArch.hold > 0 && len(ev.Payload) > 0
}

// samePayload reports whether the archive answered with the reference's
// bytes: as many, at the same address of the same array, or nil where the
// reference holds an empty slice.
func samePayload(got, want []byte) bool {
	if len(want) == 0 {
		return got == nil
	}
	return len(got) == len(want) && &got[0] == &want[0]
}

// sameEvent reports whether an archive answered with the reference's event.
func sameEvent(got, want proto.Event) bool {
	return got.ID == want.ID && samePayload(got.Payload, want.Payload)
}

// checkSideRing: the id ring holds each live id as the word origin<<32 |
// seq. The side, and its payload ring, is nil until a non-empty payload is
// accepted, then as long as the id ring, and the payload ring holds nothing
// outside the live window.
func (p *fifoPair) checkSideRing() {
	p.t.Helper()
	a := &p.arch
	for i, e := range p.refArch.events {
		if w, want := a.ring[a.pos(uint32(i))], uint64(e.ID.Origin)<<32|uint64(e.ID.Seq); w != want {
			p.t.Fatalf("seed %d op %d: entry %d (%v) is the word %#x, want %#x", p.seed, p.op, i, e.ID, w, want)
		}
	}
	if a.side == nil {
		if p.paid {
			p.t.Fatalf("seed %d op %d: a payload was archived, but there is no side", p.seed, p.op)
		}
		return
	}
	pay := a.side.pay
	if !p.paid || len(pay) != len(a.ring) {
		p.t.Fatalf("seed %d op %d: payload ring of %d slots beside an id ring of %d (a payload archived: %v)",
			p.seed, p.op, len(pay), len(a.ring), p.paid)
	}
	slots := uint32(len(pay))
	for q := range pay {
		if (uint32(q)+slots-a.head)%slots >= a.n && pay[q] != (payloadRef{}) {
			p.t.Fatalf("seed %d op %d: payload-ring position %d outside the live window (head %d, %d held) keeps a payload",
				p.seed, p.op, q, a.head, a.n)
		}
	}
}

func (p *fifoPair) truncate(max int) {
	p.t.Helper()
	p.op++
	if g, w := p.ids.TruncateOldestDiscard(max), p.refIDs.TruncateOldestDiscard(max); g != w {
		p.t.Fatalf("seed %d op %d: TruncateOldestDiscard(%d) = %d, reference %d", p.seed, p.op, max, g, w)
	}
	p.check(proto.EventID{})
}

// check compares lengths, full oldest-first order, the archive's window
// reads at both of its windows and on either side of them, and membership,
// lookup of probe and of every id either side holds or just lost, and
// their service: in one request, twice over, which is past serveScanMax
// once anything is held, and a few of them alone.
func (p *fifoPair) check(probe proto.EventID) {
	p.t.Helper()
	if g, w := p.ids.Len(), p.refIDs.Len(); g != w {
		p.t.Fatalf("seed %d op %d: IDBuffer.Len = %d, reference %d", p.seed, p.op, g, w)
	}
	if g, w := p.arch.Len(), p.refArch.Len(); g != w {
		p.t.Fatalf("seed %d op %d: Archive.Len = %d, reference %d", p.seed, p.op, g, w)
	}
	before, beforeArch := p.heldIDs, p.heldArch // the evictees are among them
	want := p.refIDs.AppendIDs(nil)
	if got := p.ids.AppendIDs(nil); !slices.Equal(got, want) {
		p.t.Fatalf("seed %d op %d: AppendIDs = %v, reference %v", p.seed, p.op, got, want)
	}
	for i, id := range want {
		if got := p.ids.inner.At(i); got != id {
			p.t.Fatalf("seed %d op %d: At(%d) = %v, reference %v", p.seed, p.op, i, got, id)
		}
	}
	archWant := p.refArch.AppendNewest(nil, p.refArch.hold)
	windows := []int{-1, 0, 1, p.refArch.serve - 1, p.refArch.serve, p.window, p.window + 1, p.refArch.hold}
	for _, w := range windows {
		if got, want := p.arch.AppendNewest(nil, w), p.refArch.AppendNewest(nil, w); !slices.Equal(got, want) {
			p.t.Fatalf("seed %d op %d: AppendNewest(%d) = %v, reference %v", p.seed, p.op, w, got, want)
		}
	}
	p.checkSideRing()
	all := slices.Concat(before, want, beforeArch, archWant, []proto.EventID{probe})
	some := slices.Concat(ends(before), ends(want), ends(beforeArch), ends(archWant), []proto.EventID{probe})
	// A long list is probed whole every sixteenth op, otherwise at both ends
	// of what it held and holds: the evictees and the newcomers. The window
	// reads and Serve, each a scan of a window per id in the reference, take
	// the whole list every 64th op.
	probes, windowProbes := all, all
	if len(all) > 40 && p.op%16 != 0 {
		probes = some
	}
	if len(all) > 40 && p.op%64 != 0 {
		windowProbes = some
	}
	for _, id := range probes {
		if g, w := p.ids.Contains(id), p.refIDs.Contains(id); g != w {
			p.t.Fatalf("seed %d op %d: IDBuffer.Contains(%v) = %v, reference %v", p.seed, p.op, id, g, w)
		}
		g, gok := p.arch.Lookup(id)
		w, wok := p.refArch.Lookup(id)
		if gok != wok || !sameEvent(g, w) {
			p.t.Fatalf("seed %d op %d: Archive.Lookup(%v) = %v,%v, reference %v,%v", p.seed, p.op, id, g, gok, w, wok)
		}
	}
	for _, id := range windowProbes {
		for _, win := range windows[4:6] { // the serving window and the other
			if g, w := p.arch.ContainsNewest(id, win), p.refArch.ContainsNewest(id, win); g != w {
				p.t.Fatalf("seed %d op %d: ContainsNewest(%v, %d) = %v, reference %v", p.seed, p.op, id, win, g, w)
			}
		}
	}
	for _, id := range ends(windowProbes) {
		p.checkServe([]proto.EventID{id, probe, id})
	}
	p.checkServe(slices.Concat(windowProbes, windowProbes))
	p.heldIDs, p.heldArch = want, archWant
}

// checkServe compares the archive's answer to req with the reference's: the
// same events in the same order, each payload the very bytes, and the same
// number of misses.
func (p *fifoPair) checkServe(req []proto.EventID) {
	p.t.Helper()
	got, gotMisses := p.arch.Serve(req)
	want, wantMisses := p.refArch.Serve(req)
	if gotMisses != wantMisses || !slices.EqualFunc(got, want, sameEvent) {
		p.t.Fatalf("seed %d op %d: Serve of %d ids = %v with %d misses, reference %v with %d",
			p.seed, p.op, len(req), got, gotMisses, want, wantMisses)
	}
}

// ends returns a copy of the first and last three ids of s.
func ends(s []proto.EventID) []proto.EventID {
	if len(s) <= 6 {
		return slices.Clone(s)
	}
	return append(slices.Clone(s[:3]), s[len(s)-3:]...)
}

// TestFIFOOracle compares the ring-backed IDBuffer against its KeyedList
// form, and the archive fed the same ids against the slice that defines
// it, after every op of long random sequences: adds of fresh, held and
// long-evicted ids (which the IDBuffer refuses while it holds them and the
// archive appends again); truncation of the IDBuffer to bounds on both
// sides of the index-free mode, to zero and below; stretches without
// truncation that grow a wrapped ring; pre-sizing in mid-life, to any
// length. With bounds of 1 and 2 the rings wrap hundreds of times per
// sequence, with 200 a few dozen. The archive serves its newest bound
// entries and holds max(bound, window) for windows of 0, 1, 60 and 300, so
// the serving window is shorter than, equal to and longer than the other.
func TestFIFOOracle(t *testing.T) {
	t.Parallel()
	bounds := []int{-3, 0, 1, 2, 7, 9, 60, 200}
	windows := []int{0, 1, 60, 300}
	for seed := uint64(1); seed <= 64; seed++ {
		r := rng.New(seed)
		bound := bounds[seed%uint64(len(bounds))]
		window := windows[seed/uint64(len(bounds))%uint64(len(windows))]
		p := newFIFOPair(t, seed, bound, window)
		next := uint32(0)
		origins := 1 + r.Intn(5)
		ops := 600
		if bound == 200 {
			ops = 3000
		}
		for i := 0; i < ops; i++ {
			switch k := r.Intn(40); {
			case k < 30: // the delivery path: add, then hold the bound
				next++
				p.add(proto.EventID{Origin: proto.ProcessID(r.Intn(origins)), Seq: next})
				if k < 27 {
					p.truncate(bound)
				}
			case k < 34: // an id added before: still held, or evicted long ago
				p.add(proto.EventID{Origin: proto.ProcessID(r.Intn(origins)), Seq: 1 + uint32(r.Intn(int(next)+1))})
				p.truncate(bound)
			case k < 36:
				p.truncate(bounds[r.Intn(len(bounds))])
			default:
				p.ids.Grow(r.Intn(300))
				p.check(proto.EventID{})
			}
		}
		if got, hold := len(p.arch.ring), max(bound, window); hold > 0 && got != hold {
			t.Fatalf("seed %d: archive holding %d ends in a ring of %d slots, want %d", seed, hold, got, hold)
		}
	}
}

// payloadOf draws an archived payload: nil, empty (with room or without),
// or 1 to 100 bytes.
func payloadOf(r *rng.Source) []byte {
	switch r.Intn(5) {
	case 0:
		return nil
	case 1:
		return []byte{}
	case 2:
		return make([]byte, 0, 1+r.Intn(16))
	default:
		return make([]byte, 1+r.Intn(100))
	}
}

// TestArchivePayloadOracle compares the archive's payloads with the
// reference's: Lookup and Serve must return the very slice the reference
// holds (nil for an empty one), the side ring must appear with the first
// non-empty payload and stay aligned with the id ring. The first
// payload-carrying event arrives after every number of payload-less ones
// from 0 to 200 — on an empty archive, at each growth step of the 200-slot
// ring and between them, on the full ring — and after 260, 402 and 777, when
// the ring has wrapped once, twice and more. From there payloads are a
// random mix of nil, empty and 1–100 bytes, and one event in eight names an
// id stored before: still held, so stored again as the newer copy with its
// own payload, or evicted long ago. Every op also checks the archive's
// order and that no side-ring slot outside the live window holds a payload
// (fifoPair.check). Odd runs serve the newest 60 of the 200 held, as an
// engine with ArchiveSize 60 and |eventIds|m 200 would.
func TestArchivePayloadOracle(t *testing.T) {
	t.Parallel()
	var firsts []int
	for first := 0; first <= 200; first++ {
		firsts = append(firsts, first)
	}
	firsts = append(firsts, 260, 402, 777)
	for _, first := range firsts {
		seed := uint64(first)
		r := rng.New(seed)
		serve := 200
		if first%2 == 1 {
			serve = 60
		}
		p := newFIFOPair(t, seed, serve, 200)
		next := uint32(0)
		for i := 0; i < first+250; i++ {
			ev := proto.Event{ID: proto.EventID{Origin: proto.ProcessID(1 + r.Intn(3))}}
			switch {
			case i < first: // fresh and payload-less: the archive holds min(i, 200)
				next++
				ev.ID.Seq = next
			case i == first:
				next++
				ev.ID.Seq = next
				ev.Payload = []byte{byte(first)}
			default:
				if r.Intn(8) == 0 {
					ev.ID.Seq = 1 + uint32(r.Intn(int(next)))
				} else {
					next++
					ev.ID.Seq = next
				}
				ev.Payload = payloadOf(r)
			}
			p.store(ev)
		}
		if !p.paid || p.arch.side == nil || len(p.arch.side.pay) != 200 {
			t.Fatalf("first payload after %d: no payload ring of 200 slots", first)
		}
	}
}

// TestFIFOBounded drives AddBounded directly against the reference list at
// ring lengths 1, 3, 64 and 201. While the caller keeps its promise — Len
// back under the bound before the next Add — the ring never outgrows the
// bound and wraps at it many times over; then the caller breaks it, adding
// without truncating, and the list must fall back to doubling with every
// entry kept, in order.
func TestFIFOBounded(t *testing.T) {
	t.Parallel()
	for _, bound := range []int{1, 3, 64, 201} {
		var f FIFO[proto.EventID]
		f.Init(idKey)
		var ref refIDBuffer
		ref.inner.Init(idKey)
		check := func(op string, seq uint32) {
			t.Helper()
			want := ref.AppendIDs(nil)
			if got := f.AppendItems(nil); !slices.Equal(got, want) {
				t.Fatalf("bound %d, %s %d: holds %v, reference %v", bound, op, seq, got, want)
			}
			for back := uint32(0); back <= seq && back < 2*uint32(bound)+4; back += 1 + back/8 {
				id := proto.EventID{Origin: 3, Seq: seq - back}
				if g, w := f.Contains(id), ref.Contains(id); g != w {
					t.Fatalf("bound %d, %s %d: Contains(%v) = %v, reference %v", bound, op, seq, id, g, w)
				}
			}
		}
		seq := uint32(0)
		for ; seq < uint32(5*bound+20); seq++ {
			id := proto.EventID{Origin: 3, Seq: seq + 1}
			if g, w := f.AddBounded(id, bound), ref.Add(id); g != w {
				t.Fatalf("bound %d: AddBounded(%v) = %v, reference %v", bound, id, g, w)
			}
			if f.AddBounded(id, bound) {
				t.Fatalf("bound %d: AddBounded(%v) twice", bound, id)
			}
			if len(f.ring) > bound {
				t.Fatalf("bound %d: ring of %d slots while the promise was kept", bound, len(f.ring))
			}
			check("add", seq)
			f.TruncateOldest(bound - 1)
			ref.TruncateOldestDiscard(bound - 1)
			check("truncate", seq)
		}
		if len(f.ring) != bound {
			t.Fatalf("bound %d: ring of %d slots after %d adds", bound, len(f.ring), seq)
		}
		for grown := bound; seq < uint32(8*bound+40); seq++ {
			id := proto.EventID{Origin: 3, Seq: seq + 1}
			if !f.AddBounded(id, bound) || !ref.Add(id) {
				t.Fatalf("bound %d: a fresh id refused", bound)
			}
			if f.Len() > grown {
				grown *= 2
			}
			if len(f.ring) != grown {
				t.Fatalf("bound %d: ring of %d slots holding %d entries, doubling from the bound gives %d", bound, len(f.ring), f.Len(), grown)
			}
			check("overfill", seq)
		}
	}
}

// TestFIFOIndexWrap aims at the backward-shift deletion: keys are chosen
// by their hash so that one probe run starts in the last positions of the
// index and wraps to its first, then every entry of the run is evicted in
// turn while later ones must stay reachable — in an index of 30, 64 and 402
// entries (rings of 15, 32 and 201 slots: the archive's at its default).
func TestFIFOIndexWrap(t *testing.T) {
	t.Parallel()
	for _, ring := range []int{15, 32, 201} {
		idxLen := uint32(2 * ring)
		sized := FIFO[proto.EventID]{idx: make([]fifoRef, idxLen)} // lends idxHome its length
		byHome := map[uint32][]proto.EventID{}
		for seq := uint32(1); len(byHome[idxLen-1]) < 4 || len(byHome[idxLen-2]) < 4 || len(byHome[0]) < 3 || len(byHome[1]) < 3; seq++ {
			id := proto.EventID{Origin: 5, Seq: seq}
			h := sized.idxHome(hashID(id))
			byHome[h] = append(byHome[h], id)
		}
		// Interleave the homes so that entries displaced past the table end sit
		// between ones at home, in every eviction order the three rotations give.
		var run []proto.EventID
		for i := 0; i < 3; i++ {
			run = append(run, byHome[idxLen-2][i], byHome[0][i], byHome[idxLen-1][i], byHome[1][i])
		}
		run = append(run, byHome[idxLen-1][3], byHome[idxLen-2][3])
		for rot := 0; rot < 3; rot++ {
			p := newFIFOPair(t, uint64(rot), ring, 0)
			p.ids.Grow(ring)
			for i := range run {
				p.add(run[(i+rot*5)%len(run)])
			}
			if len(p.ids.inner.idx) != int(idxLen) {
				t.Fatalf("index has %d positions, the keys were chosen for %d", len(p.ids.inner.idx), idxLen)
			}
			if !slices.ContainsFunc(p.ids.inner.idx[:len(run)], func(e fifoRef) bool {
				return e.pos != 0 && p.ids.inner.idxHome(e.hash) >= idxLen-2
			}) {
				t.Fatalf("ring %d: no entry homed at the index's end was displaced to its start", ring)
			}
			for n := len(run) - 1; n >= 0; n-- {
				p.truncate(n)
			}
		}
	}
}
