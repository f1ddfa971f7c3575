// Package planted is a fixture the design rules must fire on: each rule
// has planted breaches in internal/core.
package planted

import "planted/internal/core"

// Run runs one engine.
func Run(seed uint64) int {
	cfg := core.DefaultConfig()
	cfg.Fanout, cfg.Rounds = 3, 4
	cfg.Label = "planted"
	return core.New(cfg, seed).Run()
}
