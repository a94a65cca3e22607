//go:build !unix

package main

import "time"

// processCPU is unavailable off unix; cpu_ms_per_op then reads the wall
// time of the batch instead (see endToEnd).
func processCPU() time.Duration { return 0 }
