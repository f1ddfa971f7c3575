// Package planted is a fixture the design rules must fire on: each rule
// has one planted breach in internal/core.
package planted

import "planted/internal/core"

// Run runs one engine.
func Run(seed uint64) int {
	return core.New(core.Config{Fanout: 3, Rounds: 4}, seed).Run()
}
