//go:build !race

package membership

// raceEnabled is true when the race detector instruments the build.
const raceEnabled = false
