// Package buffer implements the bounded, duplicate-free buffers lpbcast is
// built from (§3.2 of the paper): every protocol list has a maximum size
// |L|m, "trying to add an already contained element to a list leaves the
// list unchanged", and the truncation policy differs per list — random
// removal for subs/unSubs/events, oldest-first removal for eventIds.
//
// The package also provides the paper's two digest representations: a flat
// window of the newest delivered identifiers (what the measurements in §5.2
// bound by |eventIds|m; the newest end of the Archive's ring) and the
// per-sender sequence-compacted digest the paper
// sketches as an optimization ("only retaining for each sender the
// identifiers of notifications delivered since the last one delivered in
// sequence").
package buffer

import (
	"math/bits"

	"repro/internal/rng"
)

// smallMax is the list length up to which a KeyedList runs in "small
// mode" with no hash index at all: membership is a linear scan over the
// packed items slice. The protocol's buffers are bounded by configuration
// at a few dozen entries (§3.2 — |events|m, |eventIds|m, |unSubs|m), and
// at those sizes scanning beats a map while costing zero allocations; the
// index materializes lazily only if a list actually outgrows the mode.
const smallMax = 64

// KeyedList is an insertion-ordered, duplicate-free list of values indexed
// by a comparable key. It is the substrate of the randomly truncated
// buffers (events, unSubs), where an eviction can strike any position:
// a packed slice plus membership tests that are linear scans while small
// and map lookups once past smallMax. The lists evicted oldest-first
// (eventIds and the archive, one ring) are rings instead.
//
// A list holds no storage until its first Add and doubles on demand. Its
// bound is a maximum, enforced by the caller's truncation after each inflow,
// so growth ends once bound plus inflow fits — exactly there when the bound
// travels with the call (AddBounded) — and a list that never meets an element
// (events and unSubs of an idle process) costs nothing.
//
// KeyedList is not safe for concurrent use.
type KeyedList[K comparable, V any] struct {
	key   func(V) K
	idx   map[K]struct{} // nil in small mode
	items []V
}

// Init prepares a zero-value list, whose elements are identified by key,
// in place, allocation-free.
func (l *KeyedList[K, V]) Init(key func(V) K) {
	l.key = key
}

// buildIdx leaves small mode, materializing the index from items with room
// for twice as many: at a 1x hint delete/insert churn still grows a map now
// and then (tombstone pressure).
func (l *KeyedList[K, V]) buildIdx() {
	idx := make(map[K]struct{}, 2*len(l.items))
	for _, v := range l.items {
		idx[l.key(v)] = struct{}{}
	}
	l.idx = idx
}

// contains is the mode-dispatched membership test.
func (l *KeyedList[K, V]) contains(k K) bool {
	if l.idx == nil {
		for _, v := range l.items {
			if l.key(v) == k {
				return true
			}
		}
		return false
	}
	_, ok := l.idx[k]
	return ok
}

// grown is the one growth rule of the protocol's lists: a full list of n
// slots doubles, but not past bound slots, where a caller that truncates to
// under bound before it adds again then stays; one that overfills its bound
// all the same, or names none (0), gets plain doubling.
func grown(n, bound int) int {
	g := max(1, 2*n)
	if n < bound && bound < g {
		g = bound
	}
	return g
}

// Add appends v unless an element with the same key is present. It reports
// whether the element was added.
func (l *KeyedList[K, V]) Add(v V) bool { return l.AddBounded(v, 0) }

// AddBounded is Add for a caller that truncates to under bound before it
// adds again: the list's storage stops growing at bound slots (see grown).
func (l *KeyedList[K, V]) AddBounded(v V, bound int) bool {
	k := l.key(v)
	if l.contains(k) {
		return false
	}
	l.push(k, v, bound)
	return true
}

// push appends v, whose key k the caller knows to be absent, growing the
// storage as AddBounded does.
func (l *KeyedList[K, V]) push(k K, v V, bound int) {
	if len(l.items) == cap(l.items) {
		l.items = append(make([]V, 0, grown(cap(l.items), bound)), l.items...)
	}
	l.items = append(l.items, v)
	if l.idx != nil {
		l.idx[k] = struct{}{}
	} else if len(l.items) > smallMax {
		l.buildIdx()
	}
}

// merge adds the elements of vs that keep accepts (it sees each once, in
// order) as Add would one at a time, except that v replaces the held
// element with its key, moving to the end, when newer(held, v). Every
// element that adds or replaces is appended, and one pass then keeps each
// key's last: linear, where removing at each refresh is quadratic in a
// batch that names keys again.
func (l *KeyedList[K, V]) merge(vs []V, keep func(V) bool, newer func(held, v V) bool) {
	at := make(map[K]int, len(l.items)+len(vs)) // key -> position of its last element
	for i, v := range l.items {
		at[l.key(v)] = i
	}
	for _, v := range vs {
		if i, ok := at[l.key(v)]; keep(v) && (!ok || newer(l.items[i], v)) {
			at[l.key(v)] = len(l.items)
			l.items = append(l.items, v)
		}
	}
	w := 0
	for i, v := range l.items {
		if at[l.key(v)] == i {
			l.items[w] = v
			w++
		}
	}
	clear(l.items[w:])
	l.items, l.idx = l.items[:w], nil
	if w > smallMax {
		l.buildIdx()
	}
}

// Contains reports whether an element with key k is present.
func (l *KeyedList[K, V]) Contains(k K) bool {
	return l.contains(k)
}

// Remove deletes the element with key k, preserving the order of the rest.
// It reports whether an element was removed.
func (l *KeyedList[K, V]) Remove(k K) bool {
	if l.idx != nil {
		if _, ok := l.idx[k]; !ok {
			return false
		}
		delete(l.idx, k)
	}
	for i, v := range l.items {
		if l.key(v) == k {
			l.items = append(l.items[:i], l.items[i+1:]...)
			return true
		}
	}
	return false // small mode: absent; indexed mode: unreachable
}

// Len returns the number of elements.
func (l *KeyedList[K, V]) Len() int { return len(l.items) }

// AppendItems appends the elements in insertion order to dst,
// allocation-free when dst has capacity.
func (l *KeyedList[K, V]) AppendItems(dst []V) []V {
	return append(dst, l.items...)
}

// At returns the i-th element in insertion order.
func (l *KeyedList[K, V]) At(i int) V { return l.items[i] }

// Clear removes all elements.
func (l *KeyedList[K, V]) Clear() {
	l.items = l.items[:0]
	for k := range l.idx {
		delete(l.idx, k)
	}
}

// TruncateRandomDiscard removes uniformly chosen elements until
// Len() <= max — the paper's "remove random element" truncation for
// unSubs and events — returning how many were removed. The evictees are
// not handed back, which keeps per-message truncation allocation-free.
//
// The k draws are Intn(len), Intn(len-1), …, each naming a position among
// the elements still held. A truncation that removes at most batchMax
// elements deletes at each draw, at most batchMax moves of the list. Past
// that, deleting at each draw would cost k moves of the list — quadratic in
// one hostile gossip's unSubs — so all k draws are taken first, each mapped
// to the element it names by a Fenwick tree over the held positions, and
// one pass then moves each survivor once: the same draws, the same
// survivors, in O(n log n). Honest traffic does not take that path unless
// |unSubs|m is above batchMax: the engine cuts events after every add, one
// eviction at a time, and a gossip brings unSubs at most another process's
// |unSubs|m.
//
// Afterwards a list whose storage is past 2·smallMax and more than four
// times what it holds gives the excess back, its index too (a map does not
// shrink): the index is rebuilt at the list's length, or dropped at smallMax
// or under. So a hostile inflow leaves nothing behind. Honest traffic never
// meets the rule: a list is cut to its bound b only after an inflow of at
// most another process's b, so its storage stays at 4·b or under.
func (l *KeyedList[K, V]) TruncateRandomDiscard(max int, r *rng.Source) int {
	if max < 0 {
		max = 0
	}
	n := len(l.items)
	k := n - max
	if k <= 0 {
		return 0
	}
	if k <= batchMax {
		for len(l.items) > max {
			i := r.Intn(len(l.items))
			if l.idx != nil {
				delete(l.idx, l.key(l.items[i]))
			}
			l.items = append(l.items[:i], l.items[i+1:]...)
		}
	} else {
		l.truncateBatch(max, r)
	}
	if c := cap(l.items); c > 2*smallMax && c > 4*len(l.items) {
		l.items = append([]V(nil), l.items...)
		l.idx = nil
		if len(l.items) > smallMax {
			l.buildIdx()
		}
	}
	return k
}

// fenwickSmall is the list length up to which truncateBatch keeps its tree
// and its marks on the stack.
const fenwickSmall = 256

// truncateBatch is TruncateRandomDiscard's path for a long list: tree is a
// Fenwick tree over positions 1..n holding 1 for every element not yet
// drawn, so the element a draw names — the (i+1)-th still held — is found by
// descending it, and gone marks the drawn positions for the one pass that
// moves the survivors.
func (l *KeyedList[K, V]) truncateBatch(max int, r *rng.Source) {
	n := len(l.items)
	var treeSmall [fenwickSmall + 1]int32
	var goneSmall [fenwickSmall / 64]uint64
	tree, gone := treeSmall[:], goneSmall[:]
	if n > fenwickSmall {
		tree, gone = make([]int32, n+1), make([]uint64, (n+63)/64)
	}
	for j := 1; j <= n; j++ {
		tree[j] = int32(j & -j)
	}
	top := 1 << (bits.Len(uint(n)) - 1) // the descent's first step
	for held := n; held > max; held-- {
		rank := int32(r.Intn(held)) + 1
		p := 0
		for step := top; step > 0; step >>= 1 {
			if q := p + step; q <= n && tree[q] < rank {
				p, rank = q, rank-tree[q]
			}
		}
		gone[p/64] |= 1 << (p % 64) // p is the 0-based position drawn
		for j := p + 1; j <= n; j += j & -j {
			tree[j]--
		}
	}
	w := 0
	for i, v := range l.items {
		if gone[i/64]&(1<<(i%64)) != 0 {
			delete(l.idx, l.key(v))
			continue
		}
		l.items[w] = v
		w++
	}
	clear(l.items[w:]) // what an evictee points to is garbage from here on
	l.items = l.items[:w]
}
