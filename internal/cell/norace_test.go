//go:build !race

package cell

// raceEnabled is false in ordinary builds; see race_test.go.
const raceEnabled = false
