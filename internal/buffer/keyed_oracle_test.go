package buffer

import (
	"slices"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// refKeyedList is the randomly truncated list as a slice and a Go map, the
// map kept from the first element on: no small mode, no lazy index, nothing
// to get wrong. Do not optimise it.
type refKeyedList struct {
	idx   map[proto.EventID]struct{}
	items []proto.Event
}

func (l *refKeyedList) Add(v proto.Event) bool {
	if _, ok := l.idx[v.ID]; ok {
		return false
	}
	if l.idx == nil {
		l.idx = make(map[proto.EventID]struct{})
	}
	l.idx[v.ID] = struct{}{}
	l.items = append(l.items, v)
	return true
}

func (l *refKeyedList) Remove(k proto.EventID) bool {
	if _, ok := l.idx[k]; !ok {
		return false
	}
	delete(l.idx, k)
	i := slices.IndexFunc(l.items, func(v proto.Event) bool { return v.ID == k })
	l.items = slices.Delete(l.items, i, i+1)
	return true
}

func (l *refKeyedList) TruncateRandomDiscard(max int, r *rng.Source) int {
	if max < 0 {
		max = 0
	}
	n := 0
	for len(l.items) > max {
		i := r.Intn(len(l.items))
		delete(l.idx, l.items[i].ID)
		l.items = slices.Delete(l.items, i, i+1)
		n++
	}
	return n
}

func (l *refKeyedList) Clear() {
	l.items = l.items[:0]
	clear(l.idx)
}

// TestKeyedListOracle drives Add, Remove, TruncateRandomDiscard and Clear of
// a KeyedList and of the reference with the same random op lists, the two
// truncations drawing from twin sources, and compares every result, the
// items in order, membership of what either side holds or just lost, and the
// sources' positions after every op. The bounds sit on both sides of the
// index-free mode's end at smallMax, and the inflow between two truncations
// is up to 17 elements, so lists cross it in both directions again and
// again; one reception in sixteen brings up to 400, past the truncation's
// stack tree, and while it arrives the list is probed at its ends with
// every add and whole with every 32nd. A list starts with no storage and
// doubles on demand: the test requires a list never added to to hold none,
// a truncation that removes something to leave no more than
// max(2·smallMax, 4·Len) slots, the index to exist exactly when the list has
// been longer than smallMax since a truncation last gave storage back and
// left smallMax or fewer, and the bounds past 32 to have been reached
// through at least six reallocations.
func TestKeyedListOracle(t *testing.T) {
	t.Parallel()
	bounds := []int{-2, 0, 1, 7, 30, smallMax - 1, smallMax, smallMax + 1, 100, 200}
	for seed := uint64(1); seed <= 80; seed++ {
		bound := bounds[seed%uint64(len(bounds))]
		gen := rng.New(seed)
		got, want := rng.New(seed^0xabcdef), rng.New(seed^0xabcdef)
		var l KeyedList[proto.EventID, proto.Event]
		l.Init(eventKey)
		var ref refKeyedList
		if cap(l.items) != 0 || l.idx != nil {
			t.Fatalf("a list never added to holds %d slots, index %v", cap(l.items), l.idx != nil)
		}
		next, op, grown, everLong, flood := uint32(0), 0, 0, false, false
		check := func(what string, probes ...proto.EventID) {
			t.Helper()
			if !slices.EqualFunc(l.items, ref.items, func(a, b proto.Event) bool { return a.ID == b.ID }) {
				t.Fatalf("seed %d op %d (%s): items %v, reference %v", seed, op, what, l.items, ref.items)
			}
			if l.Len() != len(ref.items) {
				t.Fatalf("seed %d op %d (%s): Len = %d, reference %d", seed, op, what, l.Len(), len(ref.items))
			}
			if got.State() != want.State() {
				t.Fatalf("seed %d op %d (%s): rng at %#x, reference at %#x", seed, op, what, got.State(), want.State())
			}
			everLong = everLong || len(ref.items) > smallMax
			if (l.idx != nil) != everLong {
				t.Fatalf("seed %d op %d (%s): index present %v with %d items, ever past %d: %v", seed, op, what, l.idx != nil, l.Len(), smallMax, everLong)
			}
			if l.idx != nil && len(l.idx) != len(l.items) {
				t.Fatalf("seed %d op %d (%s): index of %d keys beside %d items", seed, op, what, len(l.idx), len(l.items))
			}
			held := ref.items
			if flood && len(held) > 6 && op%32 != 0 {
				held = slices.Concat(held[:3], held[len(held)-3:]) // a flood is probed whole now and then
			}
			for _, v := range held {
				probes = append(probes, v.ID)
			}
			for _, k := range probes {
				_, w := ref.idx[k]
				if g := l.Contains(k); g != w {
					t.Fatalf("seed %d op %d (%s): Contains(%v) = %v, reference %v", seed, op, what, k, g, w)
				}
			}
		}
		add := func(id proto.EventID) {
			op++
			before := cap(l.items)
			// Odd seeds name a bound, which the op list keeps on some stretches
			// and breaks on others: what the list answers must not depend on it.
			if g, w := l.AddBounded(proto.Event{ID: id}, int(seed%2)*(bound+18)), ref.Add(proto.Event{ID: id}); g != w {
				t.Fatalf("seed %d op %d: Add(%v) = %v, reference %v", seed, op, id, g, w)
			}
			if cap(l.items) != before {
				grown++
			}
			check("add", id)
		}
		truncate := func(max int) {
			op++
			held, slots := slices.Clone(ref.items), cap(l.items)
			if g, w := l.TruncateRandomDiscard(max, got), ref.TruncateRandomDiscard(max, want); g != w {
				t.Fatalf("seed %d op %d: TruncateRandomDiscard(%d) = %d, reference %d", seed, op, max, g, w)
			}
			lost := make([]proto.EventID, 0, len(held))
			for _, v := range held {
				lost = append(lost, v.ID)
			}
			if cut := len(held) > len(ref.items); cut {
				if slots > 2*smallMax && slots > 4*len(ref.items) { // the storage given back, the index with it
					everLong = everLong && len(ref.items) > smallMax
				}
				if c := cap(l.items); c > 2*smallMax && c > 4*l.Len() {
					t.Fatalf("seed %d op %d: a truncation to %d left %d slots", seed, op, l.Len(), c)
				}
			}
			check("truncate", lost...)
		}
		for i := 0; i < 400; i++ {
			switch k := gen.Intn(20); {
			case k < 12: // one reception: an inflow, then the bound
				inflow := 1 + gen.Intn(17)
				flood = gen.Intn(16) == 0
				if flood {
					inflow = 1 + gen.Intn(400)
				}
				for j := inflow; j > 0; j-- {
					next++
					add(proto.EventID{Origin: proto.ProcessID(1 + gen.Intn(3)), Seq: next})
				}
				flood = false
				if k < 10 {
					truncate(bound)
				}
			case k < 14: // an id offered before: held, or long gone
				add(proto.EventID{Origin: proto.ProcessID(1 + gen.Intn(3)), Seq: 1 + uint32(gen.Intn(int(next)+1))})
			case k < 17:
				op++
				id := proto.EventID{Origin: proto.ProcessID(1 + gen.Intn(3)), Seq: 1 + uint32(gen.Intn(int(next)+1))}
				if len(ref.items) > 0 && gen.Intn(2) == 0 {
					id = ref.items[gen.Intn(len(ref.items))].ID
				}
				if g, w := l.Remove(id), ref.Remove(id); g != w {
					t.Fatalf("seed %d op %d: Remove(%v) = %v, reference %v", seed, op, id, g, w)
				}
				check("remove", id)
			case k < 19:
				truncate(bounds[gen.Intn(len(bounds))])
			default: // events ← ∅: the storage stays
				op++
				before := cap(l.items)
				l.Clear()
				ref.Clear()
				if cap(l.items) != before {
					t.Fatalf("seed %d op %d: Clear took the list from %d slots to %d", seed, op, before, cap(l.items))
				}
				check("clear")
			}
		}
		if bound > 32 && grown < 6 {
			t.Fatalf("seed %d: a list bounded at %d reached %d slots in %d reallocations, want one growth step at a time", seed, bound, cap(l.items), grown)
		}
	}
}

// TestKeyedListBounded is TestFIFOBounded for the randomly truncated list:
// while the caller keeps its promise — Len back under the bound before the
// next Add — storage doubles up to the bound and stops exactly there; when it
// breaks it, the list falls back to doubling with every element kept.
func TestKeyedListBounded(t *testing.T) {
	t.Parallel()
	for _, bound := range []int{1, 3, 31, smallMax + 1, 201} {
		var l KeyedList[proto.EventID, proto.Event]
		l.Init(eventKey)
		r := rng.New(uint64(bound))
		seq := uint32(0)
		for ; seq < uint32(5*bound+20); seq++ {
			ev := proto.Event{ID: proto.EventID{Origin: 3, Seq: seq + 1}}
			if !l.AddBounded(ev, bound) || l.AddBounded(ev, bound) {
				t.Fatalf("bound %d: AddBounded(%v) refused a fresh id or took it twice", bound, ev.ID)
			}
			if cap(l.items) > bound {
				t.Fatalf("bound %d: %d slots while the promise was kept", bound, cap(l.items))
			}
			l.TruncateRandomDiscard(bound-1, r)
		}
		if cap(l.items) != bound {
			t.Fatalf("bound %d: %d slots after %d adds", bound, cap(l.items), seq)
		}
		for grown, held := bound, l.Len(); seq < uint32(8*bound+40); seq++ {
			if !l.AddBounded(proto.Event{ID: proto.EventID{Origin: 3, Seq: seq + 1}}, bound) {
				t.Fatalf("bound %d: a fresh id refused", bound)
			}
			if held++; held > grown {
				grown *= 2
			}
			if cap(l.items) != grown || l.Len() != held {
				t.Fatalf("bound %d: %d slots holding %d of %d elements, doubling from the bound gives %d", bound, cap(l.items), l.Len(), held, grown)
			}
		}
	}
}

// refUnsubList is the unSubs buffer as a plain slice, one Add at a time: a
// process not held is appended, and one held under an older stamp is
// deleted and appended under the newer one. Do not optimise it.
type refUnsubList []proto.Unsubscription

func (l *refUnsubList) add(u proto.Unsubscription) {
	if i := slices.IndexFunc(*l, func(h proto.Unsubscription) bool { return h.Process == u.Process }); i >= 0 {
		if u.Stamp <= (*l)[i].Stamp {
			return
		}
		*l = slices.Delete(*l, i, i+1)
	}
	*l = append(*l, u)
}

// TestUnsubListAddAllOracle drives AddAll with gossips that name processes
// again, at newer, equal and older stamps, from one entry to 400 — both
// sides of smallMax, where AddAll leaves one Add at a time for the linear
// merge — between expiries and truncations drawing from twin sources, and
// compares the entries, in order, and membership with the reference's
// after every op. keep must see every entry once, in order, and what it
// refuses must not be added.
func TestUnsubListAddAllOracle(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 60; seed++ {
		gen := rng.New(seed)
		got, want := rng.New(seed^0x5eed), rng.New(seed^0x5eed)
		l := &UnsubList{}
		l.Init()
		var ref refUnsubList
		now := uint64(100)
		for op := 0; op < 200; op++ {
			switch k := gen.Intn(10); {
			case k < 7:
				n := 1 + gen.Intn(20)
				if gen.Intn(4) == 0 {
					n = 1 + gen.Intn(400)
				}
				procs := 1 + gen.Intn(2*n) // a range this small names processes again
				batch := make([]proto.Unsubscription, n)
				for i := range batch {
					batch[i] = proto.Unsubscription{Process: proto.ProcessID(1 + gen.Intn(procs)), Stamp: now - uint64(gen.Intn(20))}
				}
				refused := proto.ProcessID(1 + gen.Intn(procs))
				var seen []proto.Unsubscription
				l.AddAll(batch, func(u proto.Unsubscription) bool {
					seen = append(seen, u)
					return u.Process != refused
				})
				if !slices.Equal(seen, batch) {
					t.Fatalf("seed %d op %d: keep saw %v, want %v", seed, op, seen, batch)
				}
				for _, u := range batch {
					if u.Process != refused {
						ref.add(u)
					}
				}
			case k < 8:
				l.Expire(now, 10)
				ref = slices.DeleteFunc(ref, func(u proto.Unsubscription) bool { return u.Stamp < now-10 })
			default:
				max := gen.Intn(80)
				l.TruncateRandomDiscard(max, got)
				for len(ref) > max {
					i := want.Intn(len(ref))
					ref = slices.Delete(ref, i, i+1)
				}
			}
			now += uint64(gen.Intn(3))
			if items := l.AppendItems(nil); !slices.Equal(items, ref) {
				t.Fatalf("seed %d op %d: entries %v, reference %v", seed, op, items, ref)
			}
			if got.State() != want.State() {
				t.Fatalf("seed %d op %d: rng at %#x, reference at %#x", seed, op, got.State(), want.State())
			}
			if idx := l.inner.idx; idx != nil && len(idx) != l.Len() {
				t.Fatalf("seed %d op %d: index of %d keys beside %d entries", seed, op, len(idx), l.Len())
			}
			for p := proto.ProcessID(1); p <= 400; p++ {
				held := slices.ContainsFunc(ref, func(u proto.Unsubscription) bool { return u.Process == p })
				if l.inner.Contains(p) != held {
					t.Fatalf("seed %d op %d: Contains(%d) = %v, reference %v", seed, op, p, !held, held)
				}
			}
		}
	}
}
