package idmap

import (
	"fmt"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// refTable is the model TestTableOracle holds Table to: live ids and their
// indices in two maps, released indices on a LIFO stack, and the index
// high-water mark.
type refTable struct {
	idx  map[proto.ProcessID]Index
	id   map[Index]proto.ProcessID
	free []Index
	cap  Index
}

func (r *refTable) add(id proto.ProcessID) Index {
	if ix, ok := r.idx[id]; ok {
		return ix
	}
	var ix Index
	if n := len(r.free); n > 0 {
		ix, r.free = r.free[n-1], r.free[:n-1]
	} else {
		ix = r.cap
		r.cap++
	}
	r.idx[id], r.id[ix] = ix, id
	return ix
}

func (r *refTable) release(id proto.ProcessID) bool {
	ix, ok := r.idx[id]
	if !ok {
		return false
	}
	delete(r.idx, id)
	delete(r.id, ix)
	r.free = append(r.free, ix)
	return true
}

// oracleIDs is the id population the oracle draws from: ids served by the
// forward array (kept low: an id just below its bound would grow the array
// to 64 MB), ids at and past its bound (the sparse map), and the top of the
// id space but its last, which TestTableOracle's second pass adds.
func oracleIDs() []proto.ProcessID {
	var ids []proto.ProcessID
	for id := proto.ProcessID(1); id <= 48; id++ {
		ids = append(ids, id)
	}
	for k := proto.ProcessID(0); k < 16; k++ {
		ids = append(ids, 4000+k, denseBound+k, 1<<31+k, ^proto.ProcessID(0)-1-k)
	}
	return ids
}

// TestTableOracle drives seeded random sequences of Add (fresh and
// duplicate ids), Release (live and absent ids), Lookup, ID, Len and Reserve
// on a dense table and a SetSparseOnly one in lockstep, over the population
// of oracleIDs and then over it with 2³²−1 added, and after every op holds
// both to refTable: the live ids and their indices form a bijection below
// the index high-water mark; a released index is the next one a fresh Add
// hands out (the free list is LIFO); both tables hand out the same index
// sequence; and a released index resolves to NilProcess.
func TestTableOracle(t *testing.T) {
	t.Parallel()
	for _, withMax := range []bool{false, true} {
		ids := oracleIDs()
		if withMax {
			ids = append(ids, ^proto.ProcessID(0))
		}
		for seed := uint64(1); seed <= 24; seed++ {
			if msg := runTableOracle(seed, ids); msg != "" {
				t.Fatalf("withMax=%v seed %d: %s", withMax, seed, msg)
			}
		}
	}
}

func runTableOracle(seed uint64, ids []proto.ProcessID) string {
	r := rng.New(seed)
	var dense, sparse Table
	sparse.SetSparseOnly(true)
	tables := []*Table{&dense, &sparse}
	ref := refTable{idx: map[proto.ProcessID]Index{}, id: map[Index]proto.ProcessID{}}
	// Each seed draws from its own slice of the population, small enough
	// that adds meet live ids and releases meet absent ones.
	pool := make([]proto.ProcessID, 12+r.Intn(48))
	for i := range pool {
		pool[i] = ids[r.Intn(len(ids))]
	}
	for op := 0; op < 600; op++ {
		id := pool[r.Intn(len(pool))]
		var what string
		switch k := r.Intn(10); {
		case k < 4:
			what = fmt.Sprintf("Add(%v)", id)
			_, dup := ref.idx[id]
			next := ref.cap
			if n := len(ref.free); n > 0 {
				next = ref.free[n-1]
			}
			want := ref.add(id)
			if !dup && want != next {
				return fmt.Sprintf("op %d %s: reference handed out %d, not the top of its free list %d", op, what, want, next)
			}
			for i, tb := range tables {
				if got := tb.Add(id); got != want {
					return fmt.Sprintf("op %d %s on table %d = %d, want %d (dup %v)", op, what, i, got, want, dup)
				}
			}
		case k < 7:
			what = fmt.Sprintf("Release(%v)", id)
			want := ref.release(id)
			for i, tb := range tables {
				if got := tb.Release(id); got != want {
					return fmt.Sprintf("op %d %s on table %d = %v, want %v", op, what, i, got, want)
				}
			}
		case k < 8:
			what = fmt.Sprintf("Lookup(%v)", id)
			want, wantOK := ref.idx[id]
			for i, tb := range tables {
				if got, ok := tb.Lookup(id); ok != wantOK || (ok && got != want) {
					return fmt.Sprintf("op %d %s on table %d = %d,%v, want %d,%v", op, what, i, got, ok, want, wantOK)
				}
			}
		case k < 9:
			ix := Index(r.Intn(int(ref.cap) + 3))
			what = fmt.Sprintf("ID(%d)", ix)
			if msg := checkID(tables, &ref, ix); msg != "" {
				return fmt.Sprintf("op %d %s", op, msg)
			}
		default:
			maxID, n := pool[r.Intn(len(pool))], r.Intn(80)
			what = fmt.Sprintf("Reserve(%v, %d)", maxID, n)
			for _, tb := range tables {
				tb.Reserve(maxID, n)
			}
		}
		if msg := checkTables(tables, &ref); msg != "" {
			return fmt.Sprintf("after op %d %s: %s", op, what, msg)
		}
	}
	return ""
}

// checkID compares ID(ix) on every table with the reference: the live id,
// or for any other index NilProcess, and never a panic.
func checkID(tables []*Table, ref *refTable, ix Index) string {
	want, live := ref.id[ix]
	for i, tb := range tables {
		got, panicked := idOrPanic(tb, ix)
		switch {
		case live && (panicked || got != want):
			return fmt.Sprintf("ID(%d) on table %d = %v (panicked %v), want live %v", ix, i, got, panicked, want)
		case !live && (panicked || got != proto.NilProcess):
			return fmt.Sprintf("ID(%d) on table %d = %v (panicked %v), want NilProcess", ix, i, got, panicked)
		}
	}
	return ""
}

func idOrPanic(tb *Table, ix Index) (id proto.ProcessID, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return tb.ID(ix), false
}

// checkTables holds every table to the reference: Len and the index
// high-water mark, every live id at its index and back, no index past the
// mark, and every released index resolving to no id.
func checkTables(tables []*Table, ref *refTable) string {
	for i, tb := range tables {
		if tb.Len() != len(ref.idx) || len(tb.rev) != int(ref.cap) {
			return fmt.Sprintf("table %d Len,high-water = %d,%d, want %d,%d", i, tb.Len(), len(tb.rev), len(ref.idx), ref.cap)
		}
		for id, want := range ref.idx {
			if got, ok := tb.Lookup(id); !ok || got != want || got >= Index(len(tb.rev)) {
				return fmt.Sprintf("table %d Lookup(%v) = %d,%v, want %d,true below %d", i, id, got, ok, want, len(tb.rev))
			}
		}
	}
	for _, ix := range ref.free {
		if msg := checkID(tables, ref, ix); msg != "" {
			return msg
		}
	}
	for ix := range ref.id {
		if msg := checkID(tables, ref, ix); msg != "" {
			return msg
		}
	}
	return ""
}
