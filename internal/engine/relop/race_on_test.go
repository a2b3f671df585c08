//go:build race

package relop_test

// raceEnabled reports a -race build, whose runtime allocates on paths
// the plain build does not (sync.Pool drops items at random), so
// allocation gates skip there.
const raceEnabled = true
