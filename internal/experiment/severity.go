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

// SeverityPoint is one channel-severity cell: the paper conjectures (§1,
// §6) that its schemes "yield even better performance if wireless links
// are more lossy" — this study checks that EBSN's relative improvement
// grows as the channel degrades.
type SeverityPoint struct {
	// MeanBad and BadBER describe the severity step.
	MeanBad time.Duration
	BadBER  float64
	// BasicKbps and EBSNKbps are the per-scheme throughput samples, nil
	// where the scheme's point was quarantined.
	BasicKbps *stats.Sample
	EBSNKbps  *stats.Sample
	// ImprovementPct is EBSN's mean relative gain, zero unless both
	// samples are present.
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
	// Severities lists the (mean bad period, bad-state BER) steps, mild
	// to harsh. Nil uses a default ladder.
	Severities []SeverityStep
}

// severityPacketSize is the wired packet size every step runs at.
const severityPacketSize units.ByteSize = 1536

func (o SeverityOptions) withDefaults() SeverityOptions {
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
// Each (step, scheme) pair is one engine point; every step is in the
// result, with a nil sample where its point was quarantined (it is on
// opt.Health).
func SeverityStudy(ctx context.Context, opt Options, axes SeverityOptions) ([]SeverityPoint, error) {
	axes = axes.withDefaults()
	var points []point
	for _, sev := range axes.Severities {
		for _, scheme := range []bs.Scheme{bs.Basic, bs.EBSN} {
			points = append(points, point{
				key: fmt.Sprintf("severity/%v/bad=%v/ber=%g/size=%d", scheme, sev.MeanBad, sev.BadBER, severityPacketSize),
				run: coreReplication(func(seed int64) core.Config {
					cfg := opt.configure(core.WAN(scheme, severityPacketSize, sev.MeanBad), seed)
					cfg.Channel.BadBER = sev.BadBER
					return cfg
				}, func(r *core.Result) ([]float64, error) { return []float64{r.Summary.ThroughputKbps}, nil }),
			})
		}
	}
	tput, err := settleGrid(ctx, opt, "severity study", points, func(i int, cols []stats.Sample) *stats.Sample {
		return sample(cols, 0)
	})
	if err != nil {
		return nil, err
	}
	out := make([]SeverityPoint, len(axes.Severities))
	for i, sev := range axes.Severities {
		basic, ebsn := tput[2*i], tput[2*i+1]
		out[i] = SeverityPoint{MeanBad: sev.MeanBad, BadBER: sev.BadBER, BasicKbps: basic, EBSNKbps: ebsn}
		if basic != nil && ebsn != nil && basic.Mean() > 0 {
			out[i].ImprovementPct = 100 * (ebsn.Mean() - basic.Mean()) / basic.Mean()
		}
	}
	return out, nil
}

// SeverityTable is the severity study's column list; the improvement is
// missing wherever either scheme's throughput is.
var SeverityTable = Table[SeverityPoint]{
	Keys: []Column[SeverityPoint]{
		{Head: "bad", CSV: "bad_period_sec", CSVFormat: "%.1f", Value: func(p SeverityPoint) any { return p.MeanBad }},
		{Head: "bad BER", CSV: "bad_ber", MD: "%.0e", CSVFormat: "%g", Value: func(p SeverityPoint) any { return p.BadBER }},
	},
	Values: []Column[SeverityPoint]{
		{Head: "basic (Kbps)", CSV: "basic_kbps", MD: "%.2f", CSVFormat: "%.3f", Value: func(p SeverityPoint) any { return mean(p.BasicKbps) }},
		{Head: "ebsn (Kbps)", CSV: "ebsn_kbps", MD: "%.2f", CSVFormat: "%.3f", Value: func(p SeverityPoint) any { return mean(p.EBSNKbps) }},
		{Head: "improvement", CSV: "improvement_pct", MD: "%+.0f%%", CSVFormat: "%.1f", Value: func(p SeverityPoint) any {
			if p.BasicKbps == nil || p.EBSNKbps == nil {
				return nil
			}
			return p.ImprovementPct
		}},
	},
}
