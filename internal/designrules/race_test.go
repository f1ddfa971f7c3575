//go:build race

package designrules

// raceDetector is set when the tests run under the race detector. The rules
// type-check the standard library from source, which takes about ten times
// as long there (some 42 s against 3–5 s on a 2-core box) and checks no
// concurrent code, so they skip: the plain `go test` run of this package is
// the gate.
const raceDetector = true
