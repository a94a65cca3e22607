//go:build !race

package core

// raceEnabled is false in ordinary builds; see race_test.go.
const raceEnabled = false
