//go:build !race

package sweep_test

// raceEnabled reports a -race build, whose instrumentation distorts heap
// and timing measurements.
const raceEnabled = false
