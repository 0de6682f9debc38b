//go:build race

package lockstep_test

const raceEnabled = true
