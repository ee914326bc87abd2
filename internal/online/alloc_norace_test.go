//go:build !race

package online

// raceEnabled reports whether this test binary was built with the race
// detector; see alloc_race_test.go.
const raceEnabled = false
