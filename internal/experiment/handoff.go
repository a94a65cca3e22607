package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/chaos"
	"wtcp/internal/core"
	"wtcp/internal/errmodel"
	"wtcp/internal/stats"
	"wtcp/internal/units"
)

// HandoffPoint is one (scheme, dwell) cell of the mobility study
// [Caceres & Iftode 94], the related work the paper's §2 opens with.
// Scheme is the mobile host's behaviour on reattach: "plain" lets TCP
// find the handoff losses by timing out, "fastretransmit" sends three
// duplicate ACKs.
type HandoffPoint struct {
	Scheme         string
	Dwell          time.Duration
	ThroughputKbps *stats.Sample
	TimeoutsAvg    float64
	FastRetxAvg    float64
}

// handoffScheme is one row of the study: its name and whether the mobile
// host sends duplicate ACKs on reattach.
type handoffScheme struct {
	name    string
	dupAcks bool
}

var handoffSchemes = []handoffScheme{{"plain", false}, {"fastretransmit", true}}

// HandoffOptions holds the study's own axes; replications, transfer size,
// Checks and Oracle come from Options. Handoff runs are fully
// deterministic (error-free cells, fixed dwell), so one replication per
// point suffices.
type HandoffOptions struct {
	Dwells []time.Duration
}

// handoffLatency is the disconnection gap while switching cells.
const handoffLatency = 100 * time.Millisecond

func (o HandoffOptions) withDefaults() HandoffOptions {
	if len(o.Dwells) == 0 {
		o.Dwells = []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second}
	}
	return o
}

// HandoffStudy compares plain TCP against fast-retransmit-on-handoff
// across cell dwell times, one engine point per (scheme, dwell) cell.
func HandoffStudy(ctx context.Context, opt Options, axes HandoffOptions) ([]HandoffPoint, error) {
	axes = axes.withDefaults()
	var points []point
	var grid []HandoffPoint
	for _, scheme := range handoffSchemes {
		for _, dwell := range axes.Dwells {
			grid = append(grid, HandoffPoint{Scheme: scheme.name, Dwell: dwell})
			points = append(points, handoffPoint(opt, axes, scheme, dwell))
		}
	}
	return settleGrid(ctx, opt, "handoff study", points, func(i int, _ []RepRecord, cols []stats.Sample) HandoffPoint {
		p := grid[i]
		p.ThroughputKbps, p.TimeoutsAvg, p.FastRetxAvg = &cols[0], cols[1].Mean(), cols[2].Mean()
		return p
	})
}

// handoffPoint is one cell of the study, keyed by its scheme, dwell and
// gap.
func handoffPoint(opt Options, axes HandoffOptions, scheme handoffScheme, dwell time.Duration) point {
	return point{
		key: fmt.Sprintf("handoff/%s/dwell=%v/latency=%v", scheme.name, dwell, handoffLatency),
		run: coreReplication(func(seed int64) core.Config {
			return opt.configure(HandoffConfig(dwell, handoffLatency, scheme.dupAcks), seed)
		}, func(r *core.Result) ([]float64, error) {
			return []float64{r.Summary.ThroughputKbps, float64(r.Summary.Timeouts), float64(r.Summary.FastRetransmits)}, nil
		}),
	}
}

// HandoffConfig is the study's scenario on the paper's topology: the LAN
// preset's 10 Mbps wire and 2 Mbps radio with an error-free channel,
// basic TCP through a plain base station, 1500-byte packets and a 1 MB
// transfer, and the mobile host switching cells every dwell, out of
// reach for gap each time (a chaos.Handoff, with duplicate ACKs on
// reattach when dupAcks is set).
func HandoffConfig(dwell, gap time.Duration, dupAcks bool) core.Config {
	cfg := core.LAN(bs.Basic, 0)
	cfg.PacketSize = 1500
	cfg.TransferSize = units.MB
	cfg.Channel = errmodel.Config{MeanGood: core.DefaultHorizon}
	cfg.Chaos = &chaos.Config{Handoff: &chaos.Handoff{Dwell: dwell, Gap: gap, DupAcks: dupAcks}}
	return cfg
}

// RenderHandoffTable formats the study.
func RenderHandoffTable(title string, points []HandoffPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-16s  %-10s  %-18s  %-10s  %-10s\n",
		"scheme", "dwell", "throughput(Kbps)", "timeouts", "fastretx")
	for _, p := range points {
		fmt.Fprintf(&b, "%-16s  %-10s  %-18s  %-10.1f  %-10.1f\n",
			p.Scheme, p.Dwell,
			fmt.Sprintf("%.0f", p.ThroughputKbps.Mean()),
			p.TimeoutsAvg, p.FastRetxAvg)
	}
	return b.String()
}

// HandoffCSV emits the study as CSV.
func HandoffCSV(points []HandoffPoint) string {
	var b strings.Builder
	b.WriteString("scheme,dwell_sec,throughput_kbps_mean,throughput_kbps_stddev,timeouts_avg,fastretx_avg\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%.1f,%.2f,%.2f,%.1f,%.1f\n",
			p.Scheme, p.Dwell.Seconds(),
			p.ThroughputKbps.Mean(), p.ThroughputKbps.StdDev(),
			p.TimeoutsAvg, p.FastRetxAvg)
	}
	return b.String()
}
