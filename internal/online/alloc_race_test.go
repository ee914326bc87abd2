//go:build race

package online

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation adds allocations of its own; the
// allocation gates only hold (and only run) without it.
const raceEnabled = true
