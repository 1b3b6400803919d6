//go:build !race

package archive

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
