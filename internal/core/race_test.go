//go:build race

package core

// raceEnabled gates the allocation pins: the race detector instruments
// allocation, so AllocsPerRun counts are meaningless under it (the
// behavioural and property tests still run).
const raceEnabled = true
