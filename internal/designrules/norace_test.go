//go:build !race

package designrules

// raceDetector is set when the tests run under the race detector (see
// race_test.go).
const raceDetector = false
