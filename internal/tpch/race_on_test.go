//go:build race

package tpch

// raceEnabled reports a -race build, whose runtime allocates on paths
// the plain build does not and runs generation several times slower.
const raceEnabled = true
