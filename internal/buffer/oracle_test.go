package buffer

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// The references below are the digest and the IDBuffer as they stood before
// the flat table and the ring — a Go map of origins each holding a Go map of
// sparse sequence numbers, and a KeyedList truncated from the front by
// memmove, kept verbatim (only renamed) — and the archive's contract as a
// plain slice of events. They define what the fast forms must answer —
// every result, every order — and are trivially right. Do not optimise
// them.
//
// Mutations of the fast forms these tests were seen to catch, each with a
// printed seed: the backward shift's range test made strict or not cyclic;
// an evicted entry left in the index (the probe for the next free position
// then never ends); the index not rebuilt when the ring is re-laid, or not
// told of one Add; the small-mode scan started at position 0 instead of at
// head; the wrapped AppendItems one entry short; the window not shifted
// when the watermark advances; the overflow set not drained into the slid
// window; the window one position too long in Add or too short in
// Contains; a duplicate accepted into the overflow set; Summary's sparse
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
// origin than the id's in Add, Contains or Summary, or drained for every
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
	if id.Seq <= od.watermark {
		return true
	}
	_, ok = od.sparse[id.Seq]
	return ok
}

func (d *refDigest) Add(id proto.EventID) bool {
	if id.Seq == 0 {
		return false
	}
	od := d.origins[id.Origin] // zero value for a new origin
	if id.Seq <= od.watermark {
		return false
	}
	if _, dup := od.sparse[id.Seq]; dup {
		return false
	}
	if id.Seq == od.watermark+1 {
		od.watermark++
		// Absorb any now-contiguous sparse entries.
		for {
			if _, ok := od.sparse[od.watermark+1]; !ok {
				break
			}
			delete(od.sparse, od.watermark+1)
			od.watermark++
		}
	} else {
		if od.sparse == nil {
			od.sparse = make(map[uint64]struct{})
		}
		od.sparse[id.Seq] = struct{}{}
	}
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

func (d *refDigest) Summary() []DigestEntry {
	out := make([]DigestEntry, 0, len(d.origins))
	for origin, od := range d.origins {
		sp := make([]uint64, 0, len(od.sparse))
		for s := range od.sparse {
			sp = append(sp, s)
		}
		sort.Slice(sp, func(i, j int) bool { return sp[i] < sp[j] })
		out = append(out, DigestEntry{Origin: origin, Watermark: od.watermark, Sparse: sp})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Origin < out[j].Origin })
	return out
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

func sameSummary(a, b []DigestEntry) bool {
	return slices.EqualFunc(a, b, func(x, y DigestEntry) bool {
		return x.Origin == y.Origin && x.Watermark == y.Watermark && slices.Equal(x.Sparse, y.Sparse)
	})
}

// digestPair drives a CompactDigest and the reference in lock step.
type digestPair struct {
	t    *testing.T
	seed uint64
	op   int
	got  CompactDigest
	want refDigest

	ids, missing, wantMissing []proto.EventID // the batched read's scratch
}

// hashMulInverse undoes the table's hash: origin hashMulInverse*h hashes to
// h, so origins can be made to order for any home slot.
const hashMulInverse = 0xf1de83e19937733d

// sharedHome returns the k-th of a family of origins whose hashes agree in
// their top 40 bits: they share a home slot in a table of any size.
func sharedHome(k int) proto.ProcessID {
	return proto.ProcessID((0xabcdef0123<<24 | uint64(k)) * hashMulInverse)
}

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
			id.Seq = uint64(r.Intn(int(wm) + 2)) // at or below the watermark, 0 included
		default:
			id.Seq = wm + offsets[r.Intn(len(offsets))]
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
	kept := proto.EventID{Origin: 1<<63 | 1, Seq: 1<<63 | 1}
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
// the id and its origin; whole also compares SparseLen and Summary, which
// walk every origin.
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
	// The id itself, its neighbours, and the edges of the window and of
	// the overflow set around the origin's watermark.
	wm := p.want.Watermark(id.Origin)
	for _, seq := range []uint64{id.Seq, id.Seq - 1, id.Seq + 1, 0, 1, wm, wm + 1, wm + 2, wm + 63, wm + 64, wm + 65, wm + 66, wm + 1<<40} {
		q := proto.EventID{Origin: id.Origin, Seq: seq}
		if g, w := p.got.Contains(q), p.want.Contains(q); g != w {
			p.t.Fatalf("seed %d op %d: after Add(%v) Contains(%v) = %v, reference %v", p.seed, p.op, id, q, g, w)
		}
	}
	if g := p.got.Watermark(id.Origin); g != wm {
		p.t.Fatalf("seed %d op %d: Watermark(%d) = %d, reference %d", p.seed, p.op, id.Origin, g, wm)
	}
	if g, w := p.got.Origins(), p.want.Origins(); g != w {
		p.t.Fatalf("seed %d op %d: Origins = %d, reference %d", p.seed, p.op, g, w)
	}
	if !whole {
		return
	}
	if g, w := p.got.SparseLen(), p.want.SparseLen(); g != w {
		p.t.Fatalf("seed %d op %d: SparseLen = %d, reference %d", p.seed, p.op, g, w)
	}
	if g, w := p.got.Summary(), p.want.Summary(); !sameSummary(g, w) {
		p.t.Fatalf("seed %d op %d: after Add(%v) Summary = %+v, reference %+v", p.seed, p.op, id, g, w)
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
// step up to a thousand tracked origins. A new origin's first id is past
// the window four times in fifteen, so origins whose only record sits in
// the overflow set are carried through those steps too.
//
// A scripted sequence comes first: two origins sharing a home slot both hold
// ids past their windows, one of them absorbs its way up to them, and the
// other's set must not move.
//
// Before the first op and after every one the batched read, AppendMissing,
// is compared with one reference Contains per id over a fresh list of ids
// (probe) whose length walks 0, 1, 63, 64, 65 and 200 — nothing, one id, and
// either side of one and of three blocks.
func TestCompactDigestOracle(t *testing.T) {
	t.Parallel()
	offsets := []uint64{1, 1, 1, 1, 2, 2, 3, 5, 17, 63, 64, 65, 66, 130, 1 << 40}
	lengths := []int{0, 1, 63, 64, 65, 200}
	twoFarSets(t)
	for seed := uint64(1); seed <= 160; seed++ {
		r := rng.New(seed)
		probes := rng.New(seed ^ 0x5eed) // its own stream: the ops stay what they were
		universe := []int{1, 3, 40, 1100}[seed%4]
		origins := make([]proto.ProcessID, universe)
		for i := range origins {
			switch r.Intn(4) {
			case 0:
				origins[i] = proto.ProcessID(i) // origin 0 included
			case 1:
				origins[i] = proto.ProcessID(r.Uint64())
			case 2:
				origins[i] = sharedHome(i)
			default:
				origins[i] = proto.ProcessID(uint64(i) << 32) // equal low bits
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
			p.add(proto.EventID{Origin: origin, Seq: seq}, universe <= 3 || i%(universe/8) == 0 || i == ops-1)
			p.checkMissing(p.probe(probes, origins, offsets, lengths[i%len(lengths)]))
		}
	}
}

// twoFarSets is the oracle's scripted sequence. Origins a and b share a home
// slot; both record ids 70, 71 and 2^40 before anything else, so each is an
// origin whose only record is its overflow set. Then a delivers 1..7: at
// watermark 6 its window reaches 70, at 7 it reaches 71, and both leave a's
// set while b's, compared in full after every op, stays as it was. Thirty
// more origins then grow the table, from 4 slots to 58, around both.
func twoFarSets(t *testing.T) {
	t.Helper()
	p := digestPair{t: t}
	a, b := sharedHome(1), sharedHome(2)
	for _, seq := range []uint64{70, 71, 1 << 40} {
		p.add(proto.EventID{Origin: a, Seq: seq}, true)
		p.add(proto.EventID{Origin: b, Seq: seq}, true)
	}
	for seq := uint64(1); seq <= 7; seq++ {
		p.add(proto.EventID{Origin: a, Seq: seq}, true)
	}
	for k := 3; k < 33; k++ {
		p.add(proto.EventID{Origin: sharedHome(k), Seq: 1}, true)
	}
	far := map[proto.ProcessID]int{}
	for origin, set := range p.got.far {
		far[origin] = len(set)
	}
	if len(far) != 2 || far[a] != 1 || far[b] != 3 || p.got.SparseLen() != 6 {
		t.Fatalf("overflow sets hold %v ids (SparseLen %d), want 1 for a (%d), 3 for b (%d), SparseLen 6", far, p.got.SparseLen(), a, b)
	}
}

// TestSharedHomeOrigins pins what the oracle's third kind of origin is for:
// the family really does collide, in a table of every length up to 4096
// slots — past what a thousand origins grow it to. Hashes that agree in
// their top 40 bits scale to the same slot unless a slot boundary falls
// between them, which for these lengths and this prefix none does.
func TestSharedHomeOrigins(t *testing.T) {
	if m := uint64(hashMul); m*hashMulInverse != 1 {
		t.Fatalf("hashMulInverse is not the inverse of hashMul")
	}
	for n := 1; n <= 4096; n++ {
		home := homeSlot(sharedHome(0), n)
		if home >= uint64(n) {
			t.Fatalf("home slot %d in a table of %d", home, n)
		}
		for k := 1; k < 1100; k++ {
			if h := homeSlot(sharedHome(k), n); h != home {
				t.Fatalf("sharedHome(%d) has home slot %d of %d, sharedHome(0) has %d", k, h, n, home)
			}
		}
	}
}

// TestAppendMissingAllocs: with a retained dst the batched read allocates
// nothing, whatever the digest answers.
func TestAppendMissingAllocs(t *testing.T) {
	var d CompactDigest
	ids := make([]proto.EventID, 200)
	for i := range ids {
		ids[i] = proto.EventID{Origin: proto.ProcessID(1 + i%50), Seq: uint64(1 + i%7)}
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

// TestCompactDigestWindowEdges walks the boundaries by hand: the window's
// first and last positions, the first overflow position, and one absorption
// that crosses the bitmap boundary and pulls the overflow set back in.
func TestCompactDigestWindowEdges(t *testing.T) {
	t.Parallel()
	for _, origin := range []proto.ProcessID{sharedHome(0), 7} {
		p := digestPair{t: t}
		id := func(seq uint64) proto.EventID { return proto.EventID{Origin: origin, Seq: seq} }
		p.add(id(0), true)
		for seq := uint64(1); seq <= 10; seq++ {
			p.add(id(seq), true) // watermark 10
		}
		for _, past := range []uint64{63, 64, 65, 1 << 40} {
			p.add(id(10+past), true)
			p.add(id(10+past), true) // duplicate in window, at its edge, in the overflow set
		}
		for seq := uint64(12); seq <= 10+66; seq++ {
			p.add(id(seq), true) // fills the window and two overflow positions
		}
		// One delivery absorbs all 64 window positions; the slide must take
		// 75 and 76 out of the overflow set and absorb them too.
		p.add(id(11), true)
		if got := p.got.Watermark(origin); got != 76 {
			t.Fatalf("origin %d: watermark %d after the absorbing delivery, want 76", origin, got)
		}
		if got := p.got.SparseLen(); got != 1 { // 10 + 2^40 stays out of reach
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
	if p.refArch.hold > 0 && len(ev.Payload) > 0 {
		p.paid = true
	}
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

// checkSideRing: the side ring is nil until a non-empty payload is
// accepted, then as long as the id ring, and it holds nothing outside the
// live window.
func (p *fifoPair) checkSideRing() {
	p.t.Helper()
	a := &p.arch
	if a.pay == nil {
		if p.paid {
			p.t.Fatalf("seed %d op %d: a payload was archived, but there is no side ring", p.seed, p.op)
		}
		return
	}
	if !p.paid || len(a.pay) != len(a.ring) {
		p.t.Fatalf("seed %d op %d: side ring of %d slots beside an id ring of %d (a payload archived: %v)",
			p.seed, p.op, len(a.pay), len(a.ring), p.paid)
	}
	slots := uint32(len(a.pay))
	for q := range a.pay {
		if (uint32(q)+slots-a.head)%slots >= a.n && a.pay[q] != (payloadRef{}) {
			p.t.Fatalf("seed %d op %d: side-ring position %d outside the live window (head %d, %d held) keeps a payload",
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
		next := uint64(0)
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
				p.add(proto.EventID{Origin: proto.ProcessID(r.Intn(origins)), Seq: 1 + uint64(r.Intn(int(next)+1))})
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
		next := uint64(0)
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
					ev.ID.Seq = 1 + uint64(r.Intn(int(next)))
				} else {
					next++
					ev.ID.Seq = next
				}
				ev.Payload = payloadOf(r)
			}
			p.store(ev)
		}
		if !p.paid || len(p.arch.pay) != 200 {
			t.Fatalf("first payload after %d: side ring of %d slots, want 200", first, len(p.arch.pay))
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
		check := func(op string, seq uint64) {
			t.Helper()
			want := ref.AppendIDs(nil)
			if got := f.AppendItems(nil); !slices.Equal(got, want) {
				t.Fatalf("bound %d, %s %d: holds %v, reference %v", bound, op, seq, got, want)
			}
			for back := uint64(0); back <= seq && back < 2*uint64(bound)+4; back += 1 + back/8 {
				id := proto.EventID{Origin: 3, Seq: seq - back}
				if g, w := f.Contains(id), ref.Contains(id); g != w {
					t.Fatalf("bound %d, %s %d: Contains(%v) = %v, reference %v", bound, op, seq, id, g, w)
				}
			}
		}
		seq := uint64(0)
		for ; seq < uint64(5*bound+20); seq++ {
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
		for grown := bound; seq < uint64(8*bound+40); seq++ {
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
		for seq := uint64(1); len(byHome[idxLen-1]) < 4 || len(byHome[idxLen-2]) < 4 || len(byHome[0]) < 3 || len(byHome[1]) < 3; seq++ {
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
