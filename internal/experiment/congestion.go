package experiment

import (
	"context"
	"fmt"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/core"
	"wtcp/internal/stats"
	"wtcp/internal/units"
)

// CongestionPoint is one (scheme, wired load) cell of the congested-wire
// study — the interaction the paper defers to future work (§6): does EBSN
// remain effective, and does it stay out of the way of genuine congestion
// control, when the wired network is loaded?
type CongestionPoint struct {
	Scheme         bs.Scheme
	LoadFraction   float64 // cross traffic / wired capacity
	ThroughputKbps *stats.Sample
	Timeouts       *stats.Sample
}

// Every cell runs at one wired packet size and one mean bad period.
const (
	congestionPacketSize units.ByteSize = 576
	congestionBadPeriod                 = 2 * time.Second
)

// CongestionStudy sweeps wired cross-traffic load (0, 30 and 60 % of the
// wired capacity) for basic TCP and EBSN, one engine point per (scheme,
// load) cell; replications, seeds and transfer size come from opt.
func CongestionStudy(ctx context.Context, opt Options) ([]CongestionPoint, error) {
	return congestionStudy(ctx, opt, []float64{0, 0.3, 0.6})
}

// congestionStudy runs the study over the given loads, fractions of the
// wired capacity.
func congestionStudy(ctx context.Context, opt Options, loads []float64) ([]CongestionPoint, error) {
	var points []point
	var grid []CongestionPoint
	for _, scheme := range []bs.Scheme{bs.Basic, bs.EBSN} {
		for _, load := range loads {
			grid = append(grid, CongestionPoint{Scheme: scheme, LoadFraction: load})
			points = append(points, point{
				key: fmt.Sprintf("congestion/%v/load=%g/bad=%v/size=%d", scheme, load, congestionBadPeriod, congestionPacketSize),
				run: coreReplication(func(seed int64) core.Config {
					cfg := opt.configure(core.WAN(scheme, congestionPacketSize, congestionBadPeriod), seed)
					cfg.CrossTraffic = core.CrossTraffic{
						Rate: units.BitRate(load * float64(cfg.WiredRate)),
					}
					return cfg
				}, func(r *core.Result) ([]float64, error) {
					return []float64{r.Summary.ThroughputKbps, float64(r.Summary.Timeouts)}, nil
				}),
			})
		}
	}
	return settleGrid(ctx, opt, "congestion study", points, func(i int, cols []stats.Sample) CongestionPoint {
		p := grid[i]
		p.ThroughputKbps, p.Timeouts = sample(cols, 0), sample(cols, 1)
		return p
	})
}

// CongestionTable is the congested-wire study's column list.
var CongestionTable = Table[CongestionPoint]{
	Keys: []Column[CongestionPoint]{
		{Head: "scheme", CSV: "scheme", Value: func(p CongestionPoint) any { return p.Scheme }},
		{Head: "wired load", CSV: "load_fraction", CSVFormat: "%.2f", Value: func(p CongestionPoint) any { return loadShare(p.LoadFraction) }},
	},
	Values: []Column[CongestionPoint]{
		{Head: "throughput (Kbps)", CSV: "throughput_kbps", MD: "%.2f", CSVFormat: "%.3f", Sample: func(p CongestionPoint) *stats.Sample { return p.ThroughputKbps }},
		{Head: "timeouts", CSV: "timeouts_avg", MD: "%.1f", CSVFormat: "%.1f", Value: func(p CongestionPoint) any { return mean(p.Timeouts) }},
	},
}

// loadShare is a wired load: its String, a percentage, in markdown.
type loadShare float64

func (l loadShare) String() string { return fmt.Sprintf("%.0f%%", 100*float64(l)) }
