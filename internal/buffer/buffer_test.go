package buffer

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/proto"
	"repro/internal/rng"
)

func pid(n uint32) proto.ProcessID { return proto.ProcessID(n) }

// newPIDKeyed returns an empty list of process ids keyed by themselves.
func newPIDKeyed() *KeyedList[proto.ProcessID, proto.ProcessID] {
	l := &KeyedList[proto.ProcessID, proto.ProcessID]{}
	l.Init(func(p proto.ProcessID) proto.ProcessID { return p })
	return l
}

func TestKeyedListAddContains(t *testing.T) {
	t.Parallel()
	l := newPIDKeyed()
	if !l.Add(1) {
		t.Fatal("first Add returned false")
	}
	if l.Add(1) {
		t.Fatal("duplicate Add returned true")
	}
	if !l.Contains(1) || l.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestKeyedListOrder(t *testing.T) {
	t.Parallel()
	l := newPIDKeyed()
	for i := uint32(1); i <= 5; i++ {
		l.Add(pid(i))
	}
	items := l.AppendItems(nil)
	for i, v := range items {
		if v != pid(uint32(i+1)) {
			t.Fatalf("order broken: %v", items)
		}
	}
	if got := l.At(2); got != 3 {
		t.Fatalf("At(2) = %v", got)
	}
}

func TestKeyedListRemove(t *testing.T) {
	t.Parallel()
	l := newPIDKeyed()
	l.Add(1)
	l.Add(2)
	l.Add(3)
	if !l.Remove(2) {
		t.Fatal("Remove(2) = false")
	}
	if l.Remove(2) {
		t.Fatal("second Remove(2) = true")
	}
	if l.Contains(2) || l.Len() != 2 {
		t.Fatal("Remove did not remove")
	}
	items := l.AppendItems(nil)
	if items[0] != 1 || items[1] != 3 {
		t.Fatalf("order after remove: %v", items)
	}
}

func TestKeyedListTruncateRandomDiscard(t *testing.T) {
	t.Parallel()
	r := rng.New(1)
	l := newPIDKeyed()
	for i := uint32(1); i <= 20; i++ {
		l.Add(pid(i))
	}
	if removed := l.TruncateRandomDiscard(5, r); removed != 15 {
		t.Fatalf("removed %d elements", removed)
	}
	// The survivors are distinct members of the original set, in their
	// original order.
	items := l.AppendItems(nil)
	if len(items) != 5 {
		t.Fatalf("Len after truncate = %d", len(items))
	}
	for i, v := range items {
		if v < 1 || v > 20 || !l.Contains(v) || (i > 0 && v <= items[i-1]) {
			t.Fatalf("survivors %v", items)
		}
	}
	if removed := l.TruncateRandomDiscard(5, r); removed != 0 {
		t.Fatalf("truncate at the bound removed %d", removed)
	}
	if removed := l.TruncateRandomDiscard(-1, r); removed != 5 || l.Len() != 0 {
		t.Fatalf("truncate to negative max removed %d, left %d", removed, l.Len())
	}
}

func TestKeyedListClear(t *testing.T) {
	t.Parallel()
	l := newPIDKeyed()
	l.Add(1)
	l.Add(2)
	l.Clear()
	if l.Len() != 0 || l.Contains(1) {
		t.Fatal("Clear did not clear")
	}
	l.Add(1) // reusable after clear
	if l.Len() != 1 {
		t.Fatal("list unusable after Clear")
	}
}

func TestKeyedListInvariants(t *testing.T) {
	t.Parallel()
	// Property: after any sequence of Add/Remove, idx and items agree and
	// items are duplicate-free.
	r := rng.New(3)
	if err := quick.Check(func(ops []uint16) bool {
		l := newPIDKeyed()
		for _, op := range ops {
			p := pid(uint32(op % 32))
			switch op % 4 {
			case 0, 1:
				l.Add(p)
			case 2:
				l.Remove(p)
			case 3:
				l.TruncateRandomDiscard(int(op%8), r)
			}
		}
		seen := map[proto.ProcessID]bool{}
		for _, v := range l.AppendItems(nil) {
			if seen[v] || !l.Contains(v) {
				return false
			}
			seen[v] = true
		}
		return len(seen) == l.Len()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnsubListStampRefresh(t *testing.T) {
	t.Parallel()
	var l UnsubList
	l.Init()
	l.Add(proto.Unsubscription{Process: 1, Stamp: 10})
	l.Add(proto.Unsubscription{Process: 1, Stamp: 5}) // older: ignored
	if got := l.AppendItems(nil)[0].Stamp; got != 10 {
		t.Fatalf("stamp = %d, want 10", got)
	}
	l.Add(proto.Unsubscription{Process: 1, Stamp: 20}) // newer: refresh
	if got := l.AppendItems(nil)[0].Stamp; got != 20 {
		t.Fatalf("stamp = %d, want 20", got)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestUnsubListExpire(t *testing.T) {
	t.Parallel()
	var l UnsubList
	l.Init()
	l.Add(proto.Unsubscription{Process: 1, Stamp: 10})
	l.Add(proto.Unsubscription{Process: 2, Stamp: 90})
	if n := l.Expire(100, 50); n != 1 {
		t.Fatalf("Expire dropped %d, want 1", n)
	}
	if l.inner.Contains(1) || !l.inner.Contains(2) {
		t.Fatal("wrong entry expired")
	}
	// TTL larger than now: nothing can be obsolete.
	if n := l.Expire(10, 50); n != 0 {
		t.Fatalf("Expire with ttl>now dropped %d", n)
	}
}

func TestEventBuffer(t *testing.T) {
	t.Parallel()
	var b EventBuffer
	b.Init()
	e := proto.Event{ID: proto.EventID{Origin: 1, Seq: 1}, Payload: []byte("x")}
	if !b.AddBounded(e, 30) || b.AddBounded(e, 30) {
		t.Fatal("AddBounded/dup behaviour wrong")
	}
	if !b.Contains(e.ID) || b.Len() != 1 {
		t.Fatal("Contains/Len wrong")
	}
	b.Clear()
	if b.Len() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestEventBufferTruncateRandom(t *testing.T) {
	t.Parallel()
	r := rng.New(4)
	var b EventBuffer
	b.Init()
	for i := uint32(1); i <= 30; i++ {
		b.AddBounded(proto.Event{ID: proto.EventID{Origin: 1, Seq: i}}, 30)
	}
	if removed := b.TruncateRandomDiscard(10, r); b.Len() != 10 || removed != 20 {
		t.Fatalf("truncate: kept %d removed %d", b.Len(), removed)
	}
}

func TestIDBufferFIFO(t *testing.T) {
	t.Parallel()
	b := NewIDBuffer()
	for i := uint32(1); i <= 5; i++ {
		b.Add(proto.EventID{Origin: 1, Seq: i})
	}
	if evicted := b.TruncateOldestDiscard(3); evicted != 2 {
		t.Fatalf("evicted %d, want 2", evicted)
	}
	if b.Contains(proto.EventID{Origin: 1, Seq: 1}) || b.Contains(proto.EventID{Origin: 1, Seq: 2}) {
		t.Fatal("oldest id still present")
	}
	if !b.Contains(proto.EventID{Origin: 1, Seq: 5}) {
		t.Fatal("newest id evicted")
	}
}

func TestArchive(t *testing.T) {
	t.Parallel()
	a := NewArchive(2)
	e1 := proto.Event{ID: proto.EventID{Origin: 1, Seq: 1}}
	e2 := proto.Event{ID: proto.EventID{Origin: 1, Seq: 2}}
	e3 := proto.Event{ID: proto.EventID{Origin: 1, Seq: 3}}
	a.Store(e1)
	a.Store(e2)
	a.Store(e3)
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
	if _, ok := a.Lookup(e1.ID); ok {
		t.Fatal("oldest event not evicted")
	}
	if got, ok := a.Lookup(e3.ID); !ok || got.ID != e3.ID {
		t.Fatal("newest event missing")
	}
	if a.side != nil {
		t.Fatal("payload-less events with fitting ids made a side")
	}
	// Payloads: the stored slice comes back, an empty one as nil, and an id
	// stored again is appended, so Lookup answers its newer copy.
	body, other := []byte("body"), []byte("other")
	a.Store(proto.Event{ID: proto.EventID{Origin: 1, Seq: 4}, Payload: body})
	if got, ok := a.Lookup(proto.EventID{Origin: 1, Seq: 4}); !ok || &got.Payload[0] != &body[0] || len(got.Payload) != len(body) {
		t.Fatalf("Lookup = %v,%v, want the stored slice %q", got, ok, body)
	}
	a.Store(proto.Event{ID: proto.EventID{Origin: 1, Seq: 4}, Payload: other})
	if got, ok := a.Lookup(proto.EventID{Origin: 1, Seq: 4}); !ok || &got.Payload[0] != &other[0] || len(got.Payload) != len(other) {
		t.Fatalf("Lookup after a second Store = %v,%v, want the newer slice %q", got, ok, other)
	}
	a.Store(proto.Event{ID: proto.EventID{Origin: 1, Seq: 5}, Payload: []byte{}})
	if got, ok := a.Lookup(proto.EventID{Origin: 1, Seq: 5}); !ok || got.Payload != nil {
		t.Fatalf("Lookup of an empty payload = %#v,%v, want a nil payload", got, ok)
	}
	if got := a.AppendNewest(nil, 2); !slices.Equal(got, []proto.EventID{{Origin: 1, Seq: 4}, {Origin: 1, Seq: 5}}) {
		t.Fatalf("AppendNewest(2) = %v, want 1:4 then 1:5", got)
	}
}

// TestArchiveWindows: an archive that serves its newest 2 and holds its
// newest 4 reads all 4 as a window, but answers pulls from 2.
func TestArchiveWindows(t *testing.T) {
	t.Parallel()
	var a Archive
	a.Init(2, 4)
	ids := make([]proto.EventID, 6)
	for i := range ids {
		ids[i] = proto.EventID{Origin: 1, Seq: uint32(i + 1)}
		a.Store(proto.Event{ID: ids[i]})
	}
	if got := a.AppendNewest(nil, 60); a.Len() != 4 || !slices.Equal(got, ids[2:]) {
		t.Fatalf("holds %d, window %v; want 4, %v", a.Len(), got, ids[2:])
	}
	if !a.ContainsNewest(ids[2], 4) || a.ContainsNewest(ids[2], 3) || a.ContainsNewest(ids[1], 60) {
		t.Fatal("ContainsNewest reads the wrong window")
	}
	if _, ok := a.Lookup(ids[3]); ok {
		t.Fatal("Lookup answered from past the serving window")
	}
	if reply, misses := a.Serve(ids); len(reply) != 2 || reply[0].ID != ids[4] || misses != 4 {
		t.Fatalf("Serve = %v with %d misses, want the newest 2 and 4", reply, misses)
	}
	var none Archive
	none.Init(0, 3) // an engine with ArchiveSize 0 and the flat digest
	none.Store(proto.Event{ID: ids[0]})
	if !none.ContainsNewest(ids[0], 3) {
		t.Fatal("an archive that serves nothing dropped the window")
	}
	if reply, misses := none.Serve(ids[:1]); reply != nil || misses != 1 {
		t.Fatalf("an archive that serves nothing served %v", reply)
	}
}

// TestArchiveServe: a request is answered once per archived id, in the
// order it first names them, however often it repeats them; the payloads
// are the archived slices.
func TestArchiveServe(t *testing.T) {
	t.Parallel()
	a := NewArchive(200)
	ids := make([]proto.EventID, 260)
	for i := range ids {
		ids[i] = proto.EventID{Origin: pid(uint32(1 + i%7)), Seq: uint32(1 + i)}
		a.Store(proto.Event{ID: ids[i], Payload: []byte{byte(i), byte(i >> 8)}})
	}
	held := ids[60:]
	if reply, misses := a.Serve(nil); reply != nil || misses != 0 {
		t.Fatalf("an empty request served %v with %d misses", reply, misses)
	}
	if reply, misses := a.Serve(ids[:60]); reply != nil || misses != 60 {
		t.Fatalf("a request of evicted ids served %d events with %d misses, want none and 60", len(reply), misses)
	}
	one := make([]proto.EventID, 20_000)
	for i := range one {
		one[i] = held[17]
	}
	if reply, misses := a.Serve(one); len(reply) != 1 || reply[0].ID != held[17] || misses != 0 {
		t.Fatalf("one id named %d times served %d events with %d misses, want 1 and 0", len(one), len(reply), misses)
	}
	// Every held id twice, newest first, with the evicted ones between.
	var req []proto.EventID
	for i := len(held) - 1; i >= 0; i-- {
		req = append(req, held[i], ids[i%60])
	}
	req = append(req, held...)
	reply, misses := a.Serve(req)
	if len(reply) != len(held) || misses != len(held) { // one evicted id per held one
		t.Fatalf("served %d events with %d misses, want %d and %d", len(reply), misses, len(held), len(held))
	}
	for i, ev := range reply {
		want, _ := a.Lookup(held[len(held)-1-i])
		if ev.ID != want.ID || &ev.Payload[0] != &want.Payload[0] {
			t.Fatalf("reply[%d] = %v, want the archived %v in first-mention order", i, ev, want)
		}
	}
	// A ring past what the stack table covers.
	big := NewArchive(1000)
	for _, id := range ids {
		big.Store(proto.Event{ID: id})
	}
	if reply, misses := big.Serve(append(append([]proto.EventID(nil), ids...), ids...)); len(reply) != len(ids) || misses != 0 {
		t.Fatalf("an archive of %d served %d events with %d misses for every id twice", big.Len(), len(reply), misses)
	}
}

// TestArchiveStoreFullAllocFree gates the delivery path: once the archive
// is at its bound every Store evicts the oldest event, and must not copy
// the evictee out to do so.
func TestArchiveStoreFullAllocFree(t *testing.T) {
	a := NewArchive(200) // core.DefaultConfig's ArchiveSize
	seq := uint32(0)
	store := func() {
		seq++
		a.Store(proto.Event{ID: proto.EventID{Origin: 1, Seq: seq}})
	}
	for i := 0; i < 400; i++ {
		store()
	}
	if allocs := testing.AllocsPerRun(1000, store); allocs != 0 {
		t.Fatalf("Store on a full archive cost %.1f allocs/op, want 0", allocs)
	}
	if a.Len() != 200 {
		t.Fatalf("Len = %d, want 200", a.Len())
	}
}

// TestArchiveRingIsBounded: a full archive holds its events in a ring of
// exactly its bound (Store writes over the oldest), not in the next power of
// two, and keeps no index beside it: its only storage is the ring and the
// side behind one pointer. A slot is an 8-byte word, payload-less events
// make no side, and the header stays at 56 bytes.
func TestArchiveRingIsBounded(t *testing.T) {
	a := NewArchive(200)
	for seq := uint32(1); seq <= 1000; seq++ {
		a.Store(proto.Event{ID: proto.EventID{Origin: pid(seq % 250), Seq: seq}})
	}
	if a.Len() != 200 || len(a.ring) != 200 {
		t.Fatalf("%d events in a ring of %d slots, want 200 in 200", a.Len(), len(a.ring))
	}
	if size := unsafe.Sizeof(a.ring[0]); size != 8 || a.side != nil {
		t.Fatalf("a slot takes %d bytes and there is a side (%v), want 8 and none", size, a.side != nil)
	}
	if size := unsafe.Sizeof(Archive{}); size > 56 {
		t.Errorf("the Archive header takes %d bytes, want at most 56", size)
	}
	for i, typ := 0, reflect.TypeOf(*a); i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Name != "ring" && f.Name != "side" && f.Type.Kind() != reflect.Int && f.Type.Kind() != reflect.Uint32 {
			t.Errorf("Archive.%s (%v) is storage beside the ring and the side", f.Name, f.Type)
		}
	}
}

// TestArchiveEvictionReleasesPayloads: after 1 000 payload-carrying stores
// into an archive of 200 and then 50 payload-less ones, the side ring is as
// long as the id ring and holds a payload at the position of each of the
// older 150 and nothing at the 50 the newest overwrote, so an evicted
// payload is garbage.
func TestArchiveEvictionReleasesPayloads(t *testing.T) {
	a := NewArchive(200)
	for seq := uint32(1); seq <= 1050; seq++ {
		ev := proto.Event{ID: proto.EventID{Origin: 1, Seq: seq}}
		if seq <= 1000 {
			ev.Payload = make([]byte, 64)
		}
		a.Store(ev)
	}
	pay := a.side.pay
	if len(pay) != len(a.ring) {
		t.Fatalf("side ring of %d slots beside an id ring of %d", len(pay), len(a.ring))
	}
	for p := range pay {
		if paid := a.id(p).Seq <= 1000; paid != (pay[p].first != nil) {
			t.Fatalf("side-ring position %d (id %v, head %d) holds %d bytes", p, a.id(p), a.head, pay[p].n)
		}
	}
}

// allocSink keeps allocated's object on the heap.
var allocSink []byte

// allocated returns the bytes the allocator hands out for an object of n
// bytes: n rounded up to its size class.
func allocated(n int) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocSink = make([]byte, n)
	runtime.ReadMemStats(&after)
	allocSink = nil
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestDigestBytesPerOrigin: the table costs at most 15 bytes per tracked
// origin at 64, 250 and 1000 origins — 8-byte slots, a quarter step, then
// whatever the allocator's size class adds: 14.0, 10.8 and 10.9 bytes,
// where 16-byte slots took 24.0, 24.6 and 24.6. The header every idle
// engine carries stays at 40 bytes.
func TestDigestBytesPerOrigin(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size != 8 {
		t.Fatalf("an origin's slot takes %d bytes, want 8", size)
	}
	if size := unsafe.Sizeof(CompactDigest{}); size > 40 {
		t.Fatalf("a digest's header takes %d bytes, want at most 40", size)
	}
	const bound = 15
	d := NewCompactDigest()
	for o := uint32(1); o <= 1000; o++ {
		d.Add(proto.EventID{Origin: proto.ProcessID(o << 20), Seq: 1})
		if o == 64 || o == 250 || o == 1000 {
			slots := len(d.slots)
			bytes := slots * int(unsafe.Sizeof(slot{}))
			if bytes > bound*int(o) || 4*int(o) > 3*slots || d.Origins() != int(o) {
				t.Errorf("%d origins (%d counted) in %d slots: %d bytes, %.1f per origin, want at most %d at a load of at most 3/4",
					o, d.Origins(), slots, bytes, float64(bytes)/float64(o), bound)
			}
			t.Logf("%d origins, %.2f bytes each", o, float64(bytes)/float64(o))
		}
	}
}

// TestDigestAheadEntriesLeave: an origin has a side-map entry only while it
// has a delivery above its watermark. 10⁵ gaps, a thousand rounds of one on
// each of 100 origins, each opened by the id after next and closed by the
// next, leave the map empty after every round and hold what it retains
// with all 100 gaps open under 12 KB: about 3.5 KB, at times 8.8, where
// deleting the last entry instead of clearing the map let tombstones grow
// it to 13.7. Not parallel: it reads the heap.
func TestDigestAheadEntriesLeave(t *testing.T) {
	var d CompactDigest
	deliver := func(o int, ahead uint32) {
		origin := pid(uint32(o))
		if !d.Add(proto.EventID{Origin: origin, Seq: d.Watermark(origin) + ahead}) {
			t.Fatalf("origin %d: a new id refused", o)
		}
	}
	for o := 1; o <= 100; o++ {
		deliver(o, 1)
	}
	before := liveHeap()
	var retained int64
	for round := 0; round < 1000; round++ {
		for o := 1; o <= 100; o++ {
			deliver(o, 2)
		}
		if len(d.ahead) != 100 || d.SparseLen() != 100 {
			t.Fatalf("round %d: %d side-map entries, %d ids ahead with 100 gaps open", round, len(d.ahead), d.SparseLen())
		}
		if round == 999 {
			retained = int64(liveHeap()) - int64(before)
		}
		for o := 1; o <= 100; o++ {
			deliver(o, 1)
		}
		if len(d.ahead) != 0 || d.SparseLen() != 0 {
			t.Fatalf("round %d: %d side-map entries, %d ids ahead after every gap closed", round, len(d.ahead), d.SparseLen())
		}
	}
	if retained > 12<<10 {
		t.Errorf("100 open gaps after 10⁵ cycles retain %d bytes, want under 12 KB", retained)
	}
	if w := d.Watermark(pid(1)); w != 2001 {
		t.Fatalf("watermark %d after 1000 rounds, want 2001", w)
	}
	runtime.KeepAlive(&d)
}

// TestHostileFarAheadBounded: for any 10⁵ ids ahead of a watermark that
// never moves — ascending, as a peer counting up from 2³⁰ sends them, so
// that past maxFar each is refused, descending, so that each evicts the
// furthest kept, or interleaved — the digest SHALL keep at most maxFar,
// the nearest among them, retain at most farBudget for them and report
// each id new at most once: after the flood every one is held, a second
// pass finds none new, and neither does an id past the furthest kept. Not
// parallel: it reads the heap.
func TestHostileFarAheadBounded(t *testing.T) {
	const n = 100_000
	// A full far list retains about 5.8 KB: a sorted list of at most 1 280
	// 4-byte seqs (5 KB) and the side map's entry and set for its origin.
	// The slack of 1 KB covers what the runtime adds between two readings
	// (at most 96 B seen, under -race) and admits nothing like a second list.
	const farBudget = 5800 + 1<<10
	for _, order := range []string{"ascending", "descending", "interleaved"} {
		seqs := make([]uint32, n)
		for i := range seqs {
			seqs[i] = 1<<30 + uint32(i)
			switch order {
			case "descending":
				seqs[i] = 1<<30 - uint32(i)
			case "interleaved":
				seqs[i] = 1<<30 + uint32(i)*7919%(2*n) // a permutation of [0, 2n)
			}
		}
		// The first flood in a process charges it about 5 KB of the
		// runtime's own heap (a thread it starts meanwhile), so one flood is
		// run and discarded before the one measured.
		var d CompactDigest
		var retained int64
		for try := 0; try < 2; try++ {
			d = CompactDigest{}
			d.Add(proto.EventID{Origin: 5, Seq: 1})
			before := liveHeap()
			for _, seq := range seqs {
				d.Add(proto.EventID{Origin: 5, Seq: seq})
			}
			retained = int64(liveHeap()) - int64(before)
		}
		if got := d.SparseLen(); got != maxFar {
			t.Fatalf("%s: %d ids retained ahead, want %d", order, got, maxFar)
		}
		if retained > farBudget {
			t.Errorf("%s: %d ids ahead retain %d bytes, want at most %d", order, n, retained, farBudget)
		}
		t.Logf("%s: %d bytes retained", order, retained)
		kept := d.AppendSparse(nil)
		if kept[0].Seq != slices.Min(seqs) || !slices.IsSortedFunc(kept, compareIDs) {
			t.Fatalf("%s: kept %v .. %v, want the nearest first, from %d", order, kept[0], kept[len(kept)-1], slices.Min(seqs))
		}
		for _, seq := range seqs {
			if id := (proto.EventID{Origin: 5, Seq: seq}); !d.Contains(id) || d.Add(id) {
				t.Fatalf("%s: id %v new again after the flood", order, id)
			}
		}
		past := proto.EventID{Origin: 5, Seq: kept[len(kept)-1].Seq + 1}
		if !d.Contains(past) || d.Add(past) {
			t.Fatalf("%s: an id past a full list is new", order)
		}
		if d.Watermark(5) != 1 || d.SparseLen() != maxFar {
			t.Fatalf("%s: watermark %d, %d ids ahead after the second pass", order, d.Watermark(5), d.SparseLen())
		}
		runtime.KeepAlive(&d)
	}
}

// liveHeap returns the live heap after two collections: a sync.Pool's
// victim cache outlives the first.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestArchiveDisabled(t *testing.T) {
	t.Parallel()
	a := NewArchive(0)
	a.Store(proto.Event{ID: proto.EventID{Origin: 1, Seq: 1}})
	if a.Len() != 0 {
		t.Fatal("disabled archive stored an event")
	}
}

func TestCompactDigestBasics(t *testing.T) {
	t.Parallel()
	d := NewCompactDigest()
	id := func(seq uint32) proto.EventID { return proto.EventID{Origin: 9, Seq: seq} }
	if d.Contains(id(1)) {
		t.Fatal("empty digest contains id")
	}
	if !d.Add(id(1)) || d.Add(id(1)) {
		t.Fatal("Add/dup wrong")
	}
	if d.Watermark(9) != 1 {
		t.Fatalf("watermark = %d", d.Watermark(9))
	}
	// Out of order: 3 then 2 must compact to watermark 3.
	d.Add(id(3))
	if d.SparseLen() != 1 {
		t.Fatalf("sparse = %d", d.SparseLen())
	}
	d.Add(id(2))
	if d.Watermark(9) != 3 || d.SparseLen() != 0 {
		t.Fatalf("watermark=%d sparse=%d, want 3,0", d.Watermark(9), d.SparseLen())
	}
	if !d.Contains(id(2)) {
		t.Fatal("compacted id lost")
	}
}

func TestCompactDigestSeqZero(t *testing.T) {
	t.Parallel()
	d := NewCompactDigest()
	if d.Add(proto.EventID{Origin: 1, Seq: 0}) {
		t.Fatal("Add of seq 0 returned true")
	}
	if d.Contains(proto.EventID{Origin: 1, Seq: 0}) {
		t.Fatal("Contains of seq 0 returned true")
	}
}

// TestCompactDigestSummary: the two lists a compact gossip carries, the ids
// above their watermarks and the watermarks, come ordered by origin and
// then sequence number, after what dst held.
func TestCompactDigestSummary(t *testing.T) {
	t.Parallel()
	d := NewCompactDigest()
	d.Add(proto.EventID{Origin: 2, Seq: 5})
	d.Add(proto.EventID{Origin: 1, Seq: 1})
	d.Add(proto.EventID{Origin: 2, Seq: 7})
	d.Add(proto.EventID{Origin: 3, Seq: 1})
	d.Add(proto.EventID{Origin: 1, Seq: 100})
	held := proto.EventID{Origin: 9, Seq: 9}
	sparse := d.AppendSparse([]proto.EventID{held})
	if want := []proto.EventID{held, {Origin: 1, Seq: 100}, {Origin: 2, Seq: 5}, {Origin: 2, Seq: 7}}; !slices.Equal(sparse, want) {
		t.Fatalf("AppendSparse = %v, want %v", sparse, want)
	}
	watermarks := d.AppendWatermarks([]proto.EventID{held})
	if want := []proto.EventID{held, {Origin: 1, Seq: 1}, {Origin: 3, Seq: 1}}; !slices.Equal(watermarks, want) {
		t.Fatalf("AppendWatermarks = %v, want %v", watermarks, want)
	}
}

func TestCompactDigestMatchesFlatSet(t *testing.T) {
	t.Parallel()
	// Property: CompactDigest.Contains agrees with a plain map-based set for
	// any insertion order.
	if err := quick.Check(func(seqsRaw []uint8) bool {
		d := NewCompactDigest()
		flat := map[uint32]bool{}
		for _, raw := range seqsRaw {
			seq := uint32(raw%40) + 1
			id := proto.EventID{Origin: 1, Seq: seq}
			added := d.Add(id)
			if flat[seq] == added {
				return false // Add result must match set membership
			}
			flat[seq] = true
		}
		for seq := uint32(1); seq <= 41; seq++ {
			if d.Contains(proto.EventID{Origin: 1, Seq: seq}) != flat[seq] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompactDigestCompactionSavesSpace(t *testing.T) {
	t.Parallel()
	// In-order delivery of 1000 events must retain zero sparse ids.
	d := NewCompactDigest()
	for i := uint32(1); i <= 1000; i++ {
		d.Add(proto.EventID{Origin: 1, Seq: i})
	}
	if d.SparseLen() != 0 {
		t.Fatalf("in-order stream retained %d sparse ids", d.SparseLen())
	}
	if d.Watermark(1) != 1000 {
		t.Fatalf("watermark = %d", d.Watermark(1))
	}
}

func TestPIDList(t *testing.T) {
	t.Parallel()
	l := NewPIDList()
	for _, p := range []proto.ProcessID{3, 4, 5} {
		l.PushUnless(p, false)
	}
	l.PushUnless(3, true)
	if !l.Remove(4) || l.Remove(4) || l.Len() != 2 || l.At(0) != 3 || l.At(1) != 5 {
		t.Fatalf("after Remove(4) twice: %v, want [3 5]", l.AppendItems(nil))
	}
}

func BenchmarkIDBufferAdd(b *testing.B) {
	buf := NewIDBuffer()
	for i := 0; i < b.N; i++ {
		buf.Add(proto.EventID{Origin: 1, Seq: uint32(i)})
		buf.TruncateOldestDiscard(60)
	}
}

func BenchmarkCompactDigestAddInOrder(b *testing.B) {
	d := NewCompactDigest()
	for i := 0; i < b.N; i++ {
		d.Add(proto.EventID{Origin: 1, Seq: uint32(i + 1)})
	}
}

func BenchmarkKeyedListTruncateRandom(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		l := newPIDKeyed()
		for j := uint32(0); j < 40; j++ {
			l.Add(pid(j))
		}
		l.TruncateRandomDiscard(30, r)
	}
}

// The three benchmarks below are the delivery path's buffer operations at
// core.DefaultConfig's sizes; cmd/lpbcast-bench carries the same three as
// its buffer/* cells.

// BenchmarkDigestContains is Engine.knows under a steady load: 250 origins
// (sim-loaded-seq's publisher set), nine lookups in ten for an id at or
// below its origin's watermark, the rest for the next one nobody has yet.
func BenchmarkDigestContains(b *testing.B) {
	d := NewCompactDigest()
	r := rng.New(7)
	ids := make([]proto.EventID, 1024)
	for o := 1; o <= 250; o++ {
		for seq := uint32(1); seq <= 8; seq++ {
			d.Add(proto.EventID{Origin: pid(uint32(o)), Seq: seq})
		}
	}
	for i := range ids {
		ids[i] = proto.EventID{Origin: pid(uint32(1 + r.Intn(250))), Seq: uint32(1 + r.Intn(8))}
		if i%10 == 0 {
			ids[i].Seq = 9
		}
	}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.Contains(ids[i%len(ids)]) {
			hits++
		}
	}
	if hits > b.N {
		b.Fatal(hits)
	}
}

// BenchmarkArchiveStoreFull is one delivery's Store on an archive at its
// bound: the oldest event goes, the new one takes its place.
func BenchmarkArchiveStoreFull(b *testing.B) {
	a := NewArchive(200)
	seq := uint32(0)
	for ; seq < 400; seq++ {
		a.Store(proto.Event{ID: proto.EventID{Origin: pid(seq % 250), Seq: seq}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		a.Store(proto.Event{ID: proto.EventID{Origin: pid(seq % 250), Seq: seq}})
	}
}

// BenchmarkArchiveLookup is one id of a retransmission request served from
// a full archive; one id in four has been evicted already.
func BenchmarkArchiveLookup(b *testing.B) {
	a := NewArchive(200)
	ids := make([]proto.EventID, 256)
	for i := range ids {
		ids[i] = proto.EventID{Origin: pid(uint32(i % 250)), Seq: uint32(i + 1)}
		a.Store(proto.Event{ID: ids[i]})
	}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := a.Lookup(ids[i*7%len(ids)]); ok {
			hits++
		}
	}
	if hits > b.N {
		b.Fatal(hits)
	}
}
