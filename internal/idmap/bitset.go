package idmap

// Bitset is a plain dense bitset, used for position-keyed "keep" marks in
// view truncation and for the simulator's per-event delivery record. The
// zero value is an empty set; words grow on demand and are retained across
// Clear so a hot loop settles to zero allocations.
type Bitset struct {
	words []uint64
	// touched tracks the high-water word index actually written since the
	// last Clear, so Clear is O(touched) instead of O(capacity).
	touched int
}

// Grow ensures the set can hold bits [0, n) without further allocation.
func (b *Bitset) Grow(n int) {
	w := (n + 63) >> 6
	if cap(b.words) >= w {
		return
	}
	grown := make([]uint64, w)
	copy(grown, b.words[:b.touched])
	b.words = grown
}

// Set marks bit i.
func (b *Bitset) Set(i int) {
	w := i >> 6
	if w >= len(b.words) {
		if w >= cap(b.words) {
			b.Grow(i + 1)
		}
		b.words = b.words[:cap(b.words)]
	}
	b.words[w] |= 1 << (uint(i) & 63)
	if w+1 > b.touched {
		b.touched = w + 1
	}
}

// Unset clears bit i.
func (b *Bitset) Unset(i int) {
	w := i >> 6
	if w < len(b.words) {
		b.words[w] &^= 1 << (uint(i) & 63)
	}
}

// Get reports whether bit i is set.
func (b *Bitset) Get(i int) bool {
	w := i >> 6
	return w < len(b.words) && b.words[w]&(1<<(uint(i)&63)) != 0
}

// Move transfers bit from's value to bit to and clears from — the
// swap-remove maintenance step when the entry at position from is moved
// into position to.
func (b *Bitset) Move(from, to int) {
	if b.Get(from) {
		b.Set(to)
		b.Unset(from)
	} else {
		b.Unset(to)
	}
}

// Clear empties the set, retaining capacity.
func (b *Bitset) Clear() {
	for i := 0; i < b.touched && i < len(b.words); i++ {
		b.words[i] = 0
	}
	b.touched = 0
}
