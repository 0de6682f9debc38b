//go:build !race

package lockstep_test

const raceEnabled = false
