//go:build !race

package simulator_test

// raceEnabled reports a -race build. Its sync.Pool drops a quarter of
// the values put back at random, so allocation counts vary run to run.
const raceEnabled = false
