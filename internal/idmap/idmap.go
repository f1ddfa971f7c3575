// Package idmap maps wire-level process identities (proto.ProcessID, sparse
// uint32 ids) onto dense uint32 indices. The paper's identifiers are opaque
// and ordered (§3.1) and stay the public identity everywhere a message is
// named; the simulator fabric, crash tables, and per-process handle
// arrays instead key their hot structures on the compact index, which
// turns map lookups into array loads. Indices are recycled through a free list when processes leave,
// so a churning system's tables stay bounded by the peak live population
// rather than by the total number of identities ever seen.
//
// The simulator's million-process construction path keys every
// per-process handle on a Table index, and the golden suite's
// million-lite-churn scenario pins that recycled slots never misroute a
// delivery. Package pool provides the matching bulk allocators for the
// records these indices address.
package idmap

import (
	"fmt"

	"repro/internal/proto"
)

// Index is a dense process index. Valid indices are [0, Table.Cap()).
type Index = uint32

// NilIndex marks "no index" in forward tables.
const NilIndex = ^Index(0)

// poisonID marks a recycled slot in the reverse table while poisoning is
// on: any read of a released index resolves to the largest id, which no
// simulated process has (the simulator numbers processes from 1), so
// stale-index bugs surface as loud mismatches instead of silent aliasing.
// With poisoning on, Add refuses it; with poisoning off it is an id like
// any other.
const poisonID = ^proto.ProcessID(0)

// denseBound is the largest id served by the forward array; ids at or
// above it fall back to the sparse map. The bound keeps one huge rogue id
// from inflating the array to gigabytes.
const denseBound = 1 << 24

// Table assigns dense indices to process ids. Ids below denseBound are
// resolved through a flat forward array (an array load on the per-message
// hot path); larger ids go through a fallback map. The zero value is an
// empty table.
//
// Table is not safe for concurrent use.
type Table struct {
	fwd        []Index                   // fwd[id] = index, NilIndex when absent
	sparse     map[proto.ProcessID]Index // ids >= denseBound (or forced)
	rev        []proto.ProcessID         // rev[index] = id
	free       []Index                   // recycled indices, LIFO
	live       int
	sparseOnly bool
	poison     bool
}

// SetSparseOnly forces every id through the map fallback — a debug mode
// for equivalence tests pinning that the dense fast path and the sparse
// path are interchangeable. It must be called on an empty table.
func (t *Table) SetSparseOnly(on bool) {
	if t.live != 0 || len(t.rev) != 0 {
		panic("idmap: SetSparseOnly on a non-empty table")
	}
	t.sparseOnly = on
}

// SetPoisonRecycled enables recycle poisoning: released slots are stamped
// with a sentinel id, and resolving a released index via ID panics
// instead of returning stale data — mirroring the simulator's
// PoisonRecycled buffer debugging.
func (t *Table) SetPoisonRecycled(on bool) { t.poison = on }

// Reserve pre-sizes the table for ids in [1, maxID] and that many live
// processes, so a bulk build performs O(1) backing allocations.
func (t *Table) Reserve(maxID proto.ProcessID, n int) {
	if !t.sparseOnly && maxID < denseBound && uint64(len(t.fwd)) <= uint64(maxID) {
		t.growFwd(maxID)
	}
	if cap(t.rev) < n {
		rev := make([]proto.ProcessID, len(t.rev), n)
		copy(rev, t.rev)
		t.rev = rev
	}
}

// growFwd extends the forward array to cover id.
func (t *Table) growFwd(id proto.ProcessID) {
	n := uint64(id) + 1
	if c := uint64(cap(t.fwd)); n < 2*c {
		n = 2 * c
	}
	if n > denseBound {
		n = denseBound
	}
	grown := make([]Index, n)
	copy(grown, t.fwd)
	for i := len(t.fwd); i < len(grown); i++ {
		grown[i] = NilIndex
	}
	t.fwd = grown
}

// Add returns id's index, assigning the next one (recycled first) if id
// is new. Adding NilProcess panics: "no process" must never occupy a
// slot. So does adding 2³²−1 with poisoning on, where that id marks a
// recycled slot.
func (t *Table) Add(id proto.ProcessID) Index {
	if id == proto.NilProcess {
		panic("idmap: Add(NilProcess)")
	}
	if t.poison && id == poisonID {
		panic("idmap: Add(2³²−1) with poisoning on")
	}
	if ix, ok := t.Lookup(id); ok {
		return ix
	}
	var ix Index
	if n := len(t.free); n > 0 {
		ix = t.free[n-1]
		t.free = t.free[:n-1]
		t.rev[ix] = id
	} else {
		ix = Index(len(t.rev))
		t.rev = append(t.rev, id)
	}
	t.live++
	if !t.sparseOnly && id < denseBound {
		if uint64(len(t.fwd)) <= uint64(id) {
			t.growFwd(id)
		}
		t.fwd[id] = ix
	} else {
		if t.sparse == nil {
			t.sparse = make(map[proto.ProcessID]Index)
		}
		t.sparse[id] = ix
	}
	return ix
}

// Lookup returns id's index, if assigned.
func (t *Table) Lookup(id proto.ProcessID) (Index, bool) {
	if !t.sparseOnly && id < denseBound {
		if uint64(id) < uint64(len(t.fwd)) {
			if ix := t.fwd[id]; ix != NilIndex {
				return ix, true
			}
		}
		return 0, false
	}
	ix, ok := t.sparse[id]
	return ix, ok
}

// ID resolves an index back to its process id. Resolving an index that
// was released (and not reassigned) returns NilProcess — or panics with
// poisoning on, since touching a recycled slot is always a bug.
func (t *Table) ID(ix Index) proto.ProcessID {
	if uint64(ix) >= uint64(len(t.rev)) {
		return proto.NilProcess
	}
	id := t.rev[ix]
	if t.poison && id == poisonID {
		panic(fmt.Sprintf("idmap: ID(%d) resolves a recycled slot", ix))
	}
	return id
}

// Release returns id's index to the free list for reuse by a future Add.
// It reports whether id was present.
func (t *Table) Release(id proto.ProcessID) bool {
	ix, ok := t.Lookup(id)
	if !ok {
		return false
	}
	if !t.sparseOnly && id < denseBound {
		t.fwd[id] = NilIndex
	} else {
		delete(t.sparse, id)
	}
	if t.poison {
		t.rev[ix] = poisonID
	} else {
		t.rev[ix] = proto.NilProcess
	}
	t.free = append(t.free, ix)
	t.live--
	return true
}

// Len returns the number of live (assigned, unreleased) ids.
func (t *Table) Len() int { return t.live }

// Cap returns the index-space high-water mark: the smallest n such that
// every index ever assigned is < n. Under churn with recycling, Cap stays
// bounded by the peak concurrent population.
func (t *Table) Cap() int { return len(t.rev) }
