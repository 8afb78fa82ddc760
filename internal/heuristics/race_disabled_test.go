//go:build !race

package heuristics

// raceEnabled reports that this test binary was built with -race, where
// allocation counts are inflated by the instrumentation.
const raceEnabled = false
