package experiment

import (
	"context"
	"fmt"
	"strings"
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
	TimeoutsAvg    float64
}

// CongestionOptions holds the study's own axes; replications, seeds and
// transfer size come from Options.
type CongestionOptions struct {
	BadPeriod time.Duration
	// Loads are cross-traffic rates as fractions of the wired capacity.
	Loads []float64
}

// congestionPacketSize is the wired packet size every cell runs at.
const congestionPacketSize units.ByteSize = 576

func (o CongestionOptions) withDefaults() CongestionOptions {
	if o.BadPeriod <= 0 {
		o.BadPeriod = 2 * time.Second
	}
	if len(o.Loads) == 0 {
		o.Loads = []float64{0, 0.3, 0.6}
	}
	return o
}

// CongestionStudy sweeps wired cross-traffic load for basic TCP and
// EBSN, one engine point per (scheme, load) cell.
func CongestionStudy(ctx context.Context, opt Options, axes CongestionOptions) ([]CongestionPoint, error) {
	axes = axes.withDefaults()
	var points []point
	var grid []CongestionPoint
	for _, scheme := range []bs.Scheme{bs.Basic, bs.EBSN} {
		for _, load := range axes.Loads {
			grid = append(grid, CongestionPoint{Scheme: scheme, LoadFraction: load})
			points = append(points, point{
				key: fmt.Sprintf("congestion/%v/load=%g/bad=%v/size=%d", scheme, load, axes.BadPeriod, congestionPacketSize),
				run: coreReplication(func(seed int64) core.Config {
					cfg := opt.configure(core.WAN(scheme, congestionPacketSize, axes.BadPeriod), seed)
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
	return settleGrid(ctx, opt, "congestion study", points, func(i int, _ []RepRecord, cols []stats.Sample) CongestionPoint {
		p := grid[i]
		p.ThroughputKbps, p.TimeoutsAvg = &cols[0], cols[1].Mean()
		return p
	})
}

// CongestionCSV emits the study as CSV.
func CongestionCSV(points []CongestionPoint) string {
	var b strings.Builder
	b.WriteString("scheme,load_fraction,throughput_kbps_mean,throughput_kbps_stddev,timeouts_avg\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%.2f,%.3f,%.3f,%.1f\n",
			p.Scheme, p.LoadFraction,
			p.ThroughputKbps.Mean(), p.ThroughputKbps.StdDev(), p.TimeoutsAvg)
	}
	return b.String()
}

// RenderCongestionTable formats the study.
func RenderCongestionTable(title string, points []CongestionPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s  %-12s  %-18s  %-10s\n", "scheme", "wired load", "throughput(Kbps)", "timeouts")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s  %-12s  %-18s  %-10.1f\n",
			p.Scheme, fmt.Sprintf("%.0f%%", 100*p.LoadFraction),
			fmt.Sprintf("%.2f±%.0f%%", p.ThroughputKbps.Mean(), 100*p.ThroughputKbps.RelStdDev()),
			p.TimeoutsAvg)
	}
	return b.String()
}
