//go:build race

package membership

// raceEnabled is true when the race detector instruments the build. Its
// slowdown grows with the memory a run touches, so timing ratios mean
// nothing under it.
const raceEnabled = true
