// Package buffer implements the bounded, duplicate-free buffers lpbcast is
// built from (§3.2 of the paper): every protocol list has a maximum size
// |L|m, "trying to add an already contained element to a list leaves the
// list unchanged", and the truncation policy differs per list — random
// removal for subs/unSubs/events, oldest-first removal for eventIds.
//
// The package also provides the paper's two digest representations: a flat
// FIFO identifier buffer (what the measurements in §5.2 bound by
// |eventIds|m) and the per-sender sequence-compacted digest the paper
// sketches as an optimization ("only retaining for each sender the
// identifiers of notifications delivered since the last one delivered in
// sequence").
package buffer

import "repro/internal/rng"

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
// (eventIds, the archive) are FIFO rings instead.
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

// NewKeyedList creates a list whose elements are identified by key.
func NewKeyedList[K comparable, V any](key func(V) K) *KeyedList[K, V] {
	l := &KeyedList[K, V]{}
	l.Init(key)
	return l
}

// Init prepares a zero-value list in place — the allocation-free sibling
// of NewKeyedList for lists embedded in pooled blocks.
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
	if len(l.items) == cap(l.items) {
		l.items = append(make([]V, 0, grown(cap(l.items), bound)), l.items...)
	}
	l.items = append(l.items, v)
	if l.idx != nil {
		l.idx[k] = struct{}{}
	} else if len(l.items) > smallMax {
		l.buildIdx()
	}
	return true
}

// Contains reports whether an element with key k is present.
func (l *KeyedList[K, V]) Contains(k K) bool {
	return l.contains(k)
}

// Get returns the element with key k.
func (l *KeyedList[K, V]) Get(k K) (V, bool) {
	if l.idx == nil || l.contains(k) {
		for _, v := range l.items {
			if l.key(v) == k {
				return v, true
			}
		}
	}
	var zero V
	return zero, false
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

// Items returns a copy of the elements in insertion order.
func (l *KeyedList[K, V]) Items() []V {
	if len(l.items) == 0 {
		return nil
	}
	return append([]V(nil), l.items...)
}

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
func (l *KeyedList[K, V]) TruncateRandomDiscard(max int, r *rng.Source) int {
	if max < 0 {
		max = 0
	}
	n := 0
	for len(l.items) > max {
		i := r.Intn(len(l.items))
		delete(l.idx, l.key(l.items[i]))
		l.items = append(l.items[:i], l.items[i+1:]...)
		n++
	}
	return n
}
