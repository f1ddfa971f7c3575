// Package rng is the fixture's random source.
package rng

// Source is a linear congruential generator.
type Source struct{ state uint64 }

// New returns a source seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

// Intn returns a number in [0, n).
func (s *Source) Intn(n int) int {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return int(s.state>>33) % n
}
