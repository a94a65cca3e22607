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

// SeverityPoint is one channel-severity cell: the paper conjectures (§1,
// §6) that its schemes "yield even better performance if wireless links
// are more lossy" — this study checks that EBSN's relative improvement
// grows as the channel degrades.
type SeverityPoint struct {
	// MeanBad and BadBER describe the severity step.
	MeanBad time.Duration
	BadBER  float64
	// BasicKbps and EBSNKbps are the per-scheme throughput samples.
	BasicKbps *stats.Sample
	EBSNKbps  *stats.Sample
	// ImprovementPct is EBSN's mean relative gain.
	ImprovementPct float64
}

// SeverityStep is one rung of the severity ladder.
type SeverityStep = struct {
	MeanBad time.Duration
	BadBER  float64
}

// SeverityOptions holds the study's own axes; replications, seeds and
// transfer size come from Options.
type SeverityOptions struct {
	PacketSize units.ByteSize
	// Severities lists the (mean bad period, bad-state BER) steps, mild
	// to harsh. Nil uses a default ladder.
	Severities []SeverityStep
}

func (o SeverityOptions) withDefaults() SeverityOptions {
	if o.PacketSize <= 0 {
		o.PacketSize = 1536
	}
	if len(o.Severities) == 0 {
		o.Severities = []SeverityStep{
			{1 * time.Second, 1e-2},
			{2 * time.Second, 1e-2},
			{4 * time.Second, 1e-2},
			{6 * time.Second, 1e-2},
		}
	}
	return o
}

// SeverityStudy measures basic TCP and EBSN across a severity ladder.
// Each (step, scheme) pair is one engine point; a step with a
// quarantined half is left out of the result (it is on opt.Supervise).
func SeverityStudy(ctx context.Context, opt Options, axes SeverityOptions) ([]SeverityPoint, error) {
	axes = axes.withDefaults()
	var points []point
	for _, sev := range axes.Severities {
		for _, scheme := range []bs.Scheme{bs.Basic, bs.EBSN} {
			points = append(points, point{
				key: fmt.Sprintf("severity/%v/bad=%v/ber=%g/size=%d", scheme, sev.MeanBad, sev.BadBER, axes.PacketSize),
				run: coreReplication(func(seed int64) core.Config {
					cfg := opt.configure(core.WAN(scheme, axes.PacketSize, sev.MeanBad), seed)
					cfg.Channel.BadBER = sev.BadBER
					return cfg
				}, func(r *core.Result) ([]float64, error) { return []float64{r.Summary.ThroughputKbps}, nil }),
			})
		}
	}
	tput := make([]*stats.Sample, len(points)) // nil where the point was quarantined
	if _, err := settleGrid(ctx, opt, "severity study", points, func(i int, _ []RepRecord, cols []stats.Sample) *stats.Sample {
		tput[i] = &cols[0]
		return tput[i]
	}); err != nil {
		return nil, err
	}
	var out []SeverityPoint
	for i, sev := range axes.Severities {
		basic, ebsn := tput[2*i], tput[2*i+1]
		if basic == nil || ebsn == nil {
			continue
		}
		imp := 0.0
		if basic.Mean() > 0 {
			imp = 100 * (ebsn.Mean() - basic.Mean()) / basic.Mean()
		}
		out = append(out, SeverityPoint{
			MeanBad:        sev.MeanBad,
			BadBER:         sev.BadBER,
			BasicKbps:      basic,
			EBSNKbps:       ebsn,
			ImprovementPct: imp,
		})
	}
	return out, nil
}

// RenderSeverityTable formats the study.
func RenderSeverityTable(title string, points []SeverityPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s  %-10s  %-12s  %-12s  %-12s\n",
		"bad", "bad BER", "basic(Kbps)", "ebsn(Kbps)", "improvement")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s  %-10.0e  %-12.2f  %-12.2f  %+.0f%%\n",
			p.MeanBad, p.BadBER, p.BasicKbps.Mean(), p.EBSNKbps.Mean(), p.ImprovementPct)
	}
	return b.String()
}

// SeverityCSV emits the study as CSV.
func SeverityCSV(points []SeverityPoint) string {
	var b strings.Builder
	b.WriteString("bad_period_sec,bad_ber,basic_kbps,ebsn_kbps,improvement_pct\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%.1f,%g,%.3f,%.3f,%.1f\n",
			p.MeanBad.Seconds(), p.BadBER, p.BasicKbps.Mean(), p.EBSNKbps.Mean(), p.ImprovementPct)
	}
	return b.String()
}
