// Package core is a period package with a breach of each rule.
package core

import (
	"time"

	"planted/internal/rng"
)

// Config has four knobs: only the default and a test set Warmup, and
// nothing reads Label.
type Config struct {
	Fanout int
	Rounds int
	Warmup int
	Label  string
}

// DefaultConfig is the configuration a caller starts from.
func DefaultConfig() Config { return Config{Fanout: 1, Rounds: 1, Warmup: 1} }

// Engine gossips to the peers it has seen.
type Engine struct {
	cfg  Config
	seen map[int]bool
	src  *rng.Source
}

// New returns an engine that has seen peers 1 to 8.
func New(cfg Config, seed uint64) *Engine {
	e := &Engine{cfg: cfg, seen: map[int]bool{}, src: rng.New(seed)}
	for p := 1; p <= 8; p++ {
		e.seen[p] = true
	}
	return e
}

// Run draws a target among the seen peers each round. Both the wall clock
// and the map's order reach the result.
func (e *Engine) Run() int {
	start := time.Now()
	sum := 0
	for r := 0; r < e.cfg.Warmup+e.cfg.Rounds; r++ {
		for p := range e.seen {
			if e.src.Intn(e.cfg.Fanout) == 0 {
				sum += p
			}
		}
	}
	return sum + int(time.Since(start)%2)
}

// Planted is reached only by a test.
func (e *Engine) Planted() int { return len(e.seen) }
