//go:build !race

package cache

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = false
