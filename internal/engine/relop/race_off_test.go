//go:build !race

package relop_test

const raceEnabled = false
