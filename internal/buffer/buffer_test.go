package buffer

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/proto"
	"repro/internal/rng"
)

func pid(n uint64) proto.ProcessID { return proto.ProcessID(n) }

func TestKeyedListAddContains(t *testing.T) {
	t.Parallel()
	l := NewKeyedList(func(p proto.ProcessID) proto.ProcessID { return p })
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
	l := NewKeyedList(func(p proto.ProcessID) proto.ProcessID { return p })
	for i := uint64(1); i <= 5; i++ {
		l.Add(pid(i))
	}
	items := l.Items()
	for i, v := range items {
		if v != pid(uint64(i+1)) {
			t.Fatalf("order broken: %v", items)
		}
	}
	if got := l.At(2); got != 3 {
		t.Fatalf("At(2) = %v", got)
	}
}

func TestKeyedListRemove(t *testing.T) {
	t.Parallel()
	l := NewKeyedList(func(p proto.ProcessID) proto.ProcessID { return p })
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
	items := l.Items()
	if items[0] != 1 || items[1] != 3 {
		t.Fatalf("order after remove: %v", items)
	}
}

func TestKeyedListTruncateRandomDiscard(t *testing.T) {
	t.Parallel()
	r := rng.New(1)
	l := NewKeyedList(func(p proto.ProcessID) proto.ProcessID { return p })
	for i := uint64(1); i <= 20; i++ {
		l.Add(pid(i))
	}
	if removed := l.TruncateRandomDiscard(5, r); removed != 15 {
		t.Fatalf("removed %d elements", removed)
	}
	// The survivors are distinct members of the original set, in their
	// original order.
	items := l.Items()
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
	l := NewKeyedList(func(p proto.ProcessID) proto.ProcessID { return p })
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
		l := NewKeyedList(func(p proto.ProcessID) proto.ProcessID { return p })
		for _, op := range ops {
			p := pid(uint64(op % 32))
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
		for _, v := range l.Items() {
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
	l := NewUnsubList()
	l.Add(proto.Unsubscription{Process: 1, Stamp: 10})
	l.Add(proto.Unsubscription{Process: 1, Stamp: 5}) // older: ignored
	if got := l.Items()[0].Stamp; got != 10 {
		t.Fatalf("stamp = %d, want 10", got)
	}
	l.Add(proto.Unsubscription{Process: 1, Stamp: 20}) // newer: refresh
	if got := l.Items()[0].Stamp; got != 20 {
		t.Fatalf("stamp = %d, want 20", got)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestUnsubListExpire(t *testing.T) {
	t.Parallel()
	l := NewUnsubList()
	l.Add(proto.Unsubscription{Process: 1, Stamp: 10})
	l.Add(proto.Unsubscription{Process: 2, Stamp: 90})
	if n := l.Expire(100, 50); n != 1 {
		t.Fatalf("Expire dropped %d, want 1", n)
	}
	if l.Contains(1) || !l.Contains(2) {
		t.Fatal("wrong entry expired")
	}
	// TTL larger than now: nothing can be obsolete.
	if n := l.Expire(10, 50); n != 0 {
		t.Fatalf("Expire with ttl>now dropped %d", n)
	}
}

func TestUnsubListAppendFreshMatchesExpire(t *testing.T) {
	t.Parallel()
	build := func() *UnsubList {
		l := NewUnsubList()
		l.Add(proto.Unsubscription{Process: 1, Stamp: 10})
		l.Add(proto.Unsubscription{Process: 2, Stamp: 49})
		l.Add(proto.Unsubscription{Process: 3, Stamp: 90})
		l.Add(proto.Unsubscription{Process: 4, Stamp: 50})
		return l
	}
	for _, tc := range []struct{ now, ttl uint64 }{
		{100, 50}, // boundary: stamp 50 is exactly now-ttl and survives
		{100, 5},
		{10, 50}, // ttl > now: nothing obsolete
		{100, 0}, // zero TTL: everything stale expires
	} {
		peek := build()
		fresh := peek.AppendFresh(nil, tc.now, tc.ttl)
		destructive := build()
		destructive.Expire(tc.now, tc.ttl)
		want := destructive.Items()
		if len(fresh) != len(want) {
			t.Fatalf("now=%d ttl=%d: AppendFresh %v vs Expire+Items %v", tc.now, tc.ttl, fresh, want)
		}
		for i := range fresh {
			if fresh[i] != want[i] {
				t.Fatalf("now=%d ttl=%d: AppendFresh %v vs Expire+Items %v", tc.now, tc.ttl, fresh, want)
			}
		}
		// And the peeked list is untouched.
		if peek.Len() != 4 {
			t.Fatalf("AppendFresh mutated the list: len %d", peek.Len())
		}
	}
}

func TestEventBuffer(t *testing.T) {
	t.Parallel()
	b := NewEventBuffer()
	e := proto.Event{ID: proto.EventID{Origin: 1, Seq: 1}, Payload: []byte("x")}
	if !b.Add(e) || b.Add(e) {
		t.Fatal("Add/dup behaviour wrong")
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
	b := NewEventBuffer()
	for i := uint64(1); i <= 30; i++ {
		b.Add(proto.Event{ID: proto.EventID{Origin: 1, Seq: i}})
	}
	if removed := b.TruncateRandomDiscard(10, r); b.Len() != 10 || removed != 20 {
		t.Fatalf("truncate: kept %d removed %d", b.Len(), removed)
	}
}

func TestIDBufferFIFO(t *testing.T) {
	t.Parallel()
	b := NewIDBuffer()
	for i := uint64(1); i <= 5; i++ {
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
	if a.pay != nil {
		t.Fatal("payload-less events made a side ring")
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
		ids[i] = proto.EventID{Origin: 1, Seq: uint64(i + 1)}
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
		ids[i] = proto.EventID{Origin: pid(uint64(1 + i%7)), Seq: uint64(1 + i)}
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
	seq := uint64(0)
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
// two, and keeps no index beside it: its only slices are the ring and the
// side ring. A slot is a 16-byte id, and payload-less events make no side
// ring.
func TestArchiveRingIsBounded(t *testing.T) {
	a := NewArchive(200)
	for seq := uint64(1); seq <= 1000; seq++ {
		a.Store(proto.Event{ID: proto.EventID{Origin: pid(seq % 250), Seq: seq}})
	}
	if a.Len() != 200 || len(a.ring) != 200 {
		t.Fatalf("%d events in a ring of %d slots, want 200 in 200", a.Len(), len(a.ring))
	}
	if size := unsafe.Sizeof(a.ring[0]); size != 16 || a.pay != nil {
		t.Fatalf("a slot takes %d bytes and the side ring is %d long, want 16 and none", size, len(a.pay))
	}
	for i, typ := 0, reflect.TypeOf(*a); i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Name != "ring" && f.Name != "pay" && f.Type.Kind() != reflect.Int && f.Type.Kind() != reflect.Uint32 {
			t.Errorf("Archive.%s (%v) is storage beside the two rings", f.Name, f.Type)
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
	for seq := uint64(1); seq <= 1050; seq++ {
		ev := proto.Event{ID: proto.EventID{Origin: 1, Seq: seq}}
		if seq <= 1000 {
			ev.Payload = make([]byte, 64)
		}
		a.Store(ev)
	}
	if len(a.pay) != len(a.ring) {
		t.Fatalf("side ring of %d slots beside an id ring of %d", len(a.pay), len(a.ring))
	}
	for p := range a.pay {
		if paid := a.ring[p].Seq <= 1000; paid != (a.pay[p].first != nil) {
			t.Fatalf("side-ring position %d (id %v, head %d) holds %d bytes", p, a.ring[p], a.head, a.pay[p].n)
		}
	}
}

// TestDigestBytesPerOrigin: the table costs at most 44 bytes per tracked
// origin at 64, 250 and 1000 origins — 24-byte slots, a quarter step, then
// whatever the allocator's size class adds: 36, 38 and 41 bytes, where the
// doubling table of 32-byte slots took 64, 66 and 66.
func TestDigestBytesPerOrigin(t *testing.T) {
	if size := unsafe.Sizeof(originSlot{}); size != 24 {
		t.Fatalf("an origin's slot takes %d bytes, want 24", size)
	}
	d := NewCompactDigest()
	for o := uint64(1); o <= 1000; o++ {
		d.Add(proto.EventID{Origin: pid(o << 20), Seq: 1})
		if o == 64 || o == 250 || o == 1000 {
			bytes := len(d.slots) * int(unsafe.Sizeof(originSlot{}))
			if bytes > 44*int(o) || 4*int(o) > 3*len(d.slots) {
				t.Errorf("%d origins in %d slots: %d bytes, %.1f per origin, want at most 44 at a load of at most 3/4",
					o, len(d.slots), bytes, float64(bytes)/float64(o))
			}
		}
	}
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
	id := func(seq uint64) proto.EventID { return proto.EventID{Origin: 9, Seq: seq} }
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

func TestCompactDigestSummary(t *testing.T) {
	t.Parallel()
	d := NewCompactDigest()
	d.Add(proto.EventID{Origin: 2, Seq: 5})
	d.Add(proto.EventID{Origin: 1, Seq: 1})
	d.Add(proto.EventID{Origin: 2, Seq: 7})
	s := d.Summary()
	if len(s) != 2 || s[0].Origin != 1 || s[1].Origin != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if s[1].Watermark != 0 || len(s[1].Sparse) != 2 || s[1].Sparse[0] != 5 || s[1].Sparse[1] != 7 {
		t.Fatalf("origin 2 entry = %+v", s[1])
	}
}

func TestCompactDigestMatchesFlatSet(t *testing.T) {
	t.Parallel()
	// Property: CompactDigest.Contains agrees with a plain map-based set for
	// any insertion order.
	if err := quick.Check(func(seqsRaw []uint8) bool {
		d := NewCompactDigest()
		flat := map[uint64]bool{}
		for _, raw := range seqsRaw {
			seq := uint64(raw%40) + 1
			id := proto.EventID{Origin: 1, Seq: seq}
			added := d.Add(id)
			if flat[seq] == added {
				return false // Add result must match set membership
			}
			flat[seq] = true
		}
		for seq := uint64(1); seq <= 41; seq++ {
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
	for i := uint64(1); i <= 1000; i++ {
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
	l.Add(3)
	l.Add(3)
	l.Add(4)
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func BenchmarkIDBufferAdd(b *testing.B) {
	buf := NewIDBuffer()
	for i := 0; i < b.N; i++ {
		buf.Add(proto.EventID{Origin: 1, Seq: uint64(i)})
		buf.TruncateOldestDiscard(60)
	}
}

func BenchmarkCompactDigestAddInOrder(b *testing.B) {
	d := NewCompactDigest()
	for i := 0; i < b.N; i++ {
		d.Add(proto.EventID{Origin: 1, Seq: uint64(i + 1)})
	}
}

func BenchmarkKeyedListTruncateRandom(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		l := NewKeyedList(func(p proto.ProcessID) proto.ProcessID { return p })
		for j := uint64(0); j < 40; j++ {
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
		for seq := uint64(1); seq <= 8; seq++ {
			d.Add(proto.EventID{Origin: pid(uint64(o)), Seq: seq})
		}
	}
	for i := range ids {
		ids[i] = proto.EventID{Origin: pid(uint64(1 + r.Intn(250))), Seq: uint64(1 + r.Intn(8))}
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
	seq := uint64(0)
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
		ids[i] = proto.EventID{Origin: pid(uint64(i % 250)), Seq: uint64(i + 1)}
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
