//go:build !race

package smt

// raceEnabled reports a build under the race detector, whose sync.Pool
// drops buffers at random.
const raceEnabled = false
