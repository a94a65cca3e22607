// Package scenario holds the JSON plumbing shared by scenario-shaped
// inputs: wtcp sim scenario files and wtcp fleet campaign manifests
// both embed the same human-readable budget block, so its schema and
// validation live here once instead of drifting per CLI.
package scenario

import (
	"fmt"
	"time"

	"wtcp/internal/sim"
)

// Budget is the JSON shape of a resource budget:
//
//	"budget": {"max_events": 2000000, "max_virtual": "30m",
//	           "wall_clock": "1m", "max_heap_bytes": 268435456}
//
// Omitted fields impose no ceiling from the file (command-line budget
// flags and the default run budget still layer on top); durations
// accept "off" for explicitly unlimited.
type Budget struct {
	MaxEvents    int64  `json:"max_events"`
	MaxVirtual   string `json:"max_virtual"`
	WallClock    string `json:"wall_clock"`
	MaxHeapBytes int64  `json:"max_heap_bytes"`
}

// Build converts the JSON budget into sim's representation.
func (b Budget) Build() (sim.Budget, error) {
	out := sim.Budget{MaxEvents: b.MaxEvents, MaxHeapBytes: b.MaxHeapBytes}
	var err error
	if out.MaxVirtual, err = ParseBudgetDur("budget.max_virtual", b.MaxVirtual); err != nil {
		return sim.Budget{}, err
	}
	if out.WallClock, err = ParseBudgetDur("budget.wall_clock", b.WallClock); err != nil {
		return sim.Budget{}, err
	}
	return out, nil
}

// ParseBudgetDur parses an optional budget duration; "off" means
// explicitly unlimited (negative, which survives default layering).
func ParseBudgetDur(field, v string) (time.Duration, error) {
	if v == "off" {
		return -1, nil
	}
	return ParsePositiveDur(field, v)
}

// ParsePositiveDur parses an optional duration field that must be
// positive when present.
func ParsePositiveDur(field, v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("%s: %w (use a duration like \"4s\" or \"800ms\")", field, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("%s %v must be positive", field, d)
	}
	return d, nil
}
