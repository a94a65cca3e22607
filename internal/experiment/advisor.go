package experiment

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"wtcp/internal/units"
)

// AdvisorEntry maps one wireless error characteristic to the packet size
// that maximized measured throughput under it.
type AdvisorEntry struct {
	MeanBad        time.Duration
	PacketSize     units.ByteSize
	ThroughputKbps float64
}

// Advisor is the paper's §4.1 deployment proposal made concrete: "a fixed
// table at each base station which maps a particular wireless link error
// characteristic to the 'good' packet size for that error characteristic."
// It is built offline by calibration sweeps and consulted with the
// currently observed mean bad-period length; no per-connection state is
// involved.
type Advisor struct {
	entries []AdvisorEntry // sorted by MeanBad
}

// CalibrateAdvisor runs the Figure 7 sweep (basic TCP) for the options'
// bad periods and packet sizes and records each condition's winner among
// its measured sizes; a condition whose every point was quarantined has
// no entry.
func CalibrateAdvisor(ctx context.Context, opt Options) (*Advisor, error) {
	points, err := Fig7(ctx, opt)
	if err != nil {
		return nil, fmt.Errorf("experiment: calibration sweep: %w", err)
	}
	byBad := map[time.Duration]bool{}
	for _, p := range points {
		if p.ThroughputKbps != nil {
			byBad[p.BadPeriod] = true
		}
	}
	if len(byBad) == 0 {
		return nil, errors.New("experiment: empty calibration sweep")
	}
	a := &Advisor{}
	for bad := range byBad {
		size, tput := OptimalPacketSize(points, bad)
		a.entries = append(a.entries, AdvisorEntry{
			MeanBad:        bad,
			PacketSize:     size,
			ThroughputKbps: tput,
		})
	}
	sort.Slice(a.entries, func(i, j int) bool { return a.entries[i].MeanBad < a.entries[j].MeanBad })
	return a, nil
}

// Recommend returns the calibrated packet size for the nearest known
// error characteristic.
func (a *Advisor) Recommend(meanBad time.Duration) units.ByteSize {
	best := a.entries[0]
	bestDist := absDur(meanBad - best.MeanBad)
	for _, e := range a.entries[1:] {
		if d := absDur(meanBad - e.MeanBad); d < bestDist {
			best, bestDist = e, d
		}
	}
	return best.PacketSize
}

// Table returns a copy of the calibration entries.
func (a *Advisor) Table() []AdvisorEntry {
	out := make([]AdvisorEntry, len(a.entries))
	copy(out, a.entries)
	return out
}

// AdvisorTable is the advisory table's column list: wtcp advise prints
// it as markdown, or as CSV with -csv.
var AdvisorTable = Table[AdvisorEntry]{
	Keys: []Column[AdvisorEntry]{
		{Head: "mean bad period", CSV: "mean_bad_sec", CSVFormat: "%.1f", Value: func(e AdvisorEntry) any { return e.MeanBad }},
	},
	Values: []Column[AdvisorEntry]{
		{Head: "good packet size", CSV: "packet_size_bytes", CSVFormat: "%d", Value: func(e AdvisorEntry) any { return e.PacketSize }},
		{Head: "throughput (Kbps)", CSV: "throughput_kbps", MD: "%.2f", CSVFormat: "%.2f", Value: func(e AdvisorEntry) any { return e.ThroughputKbps }},
	},
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
