package experiment

import (
	"context"

	"wtcp/internal/core"
)

// This file is the engine's service face: the hooks wtcpd
// (internal/serve) uses to execute arbitrary scenario requests with the
// full engine policy stack and to name its shared point ledgers.

// ScenarioMetrics names the values RunScenario records for each
// replication, in order.
var ScenarioMetrics = []string{"throughput_kbps", "goodput", "retransmitted_kb", "timeouts"}

// RunScenario runs one scenario — wtcp sim's, or a wtcpd /v1/run
// request's — as a point with no ledger, under a sweep point's policies
// and on the scheduler at a width of Workers: replication r runs cfg at
// seed cfg.Seed + r − 1 and records ScenarioMetrics. observe, if not
// nil, sees each result that counts; at one worker, in seed order on
// the caller's goroutine. The outcome mirrors RunPointSpec's.
func RunScenario(ctx context.Context, opt Options, key string, cfg core.Config,
	observe func(*core.Result)) ([]RepRecord, *Quarantine, error) {
	opt = opt.WithDefaults()
	run := coreReplication(func(rep int64) core.Config {
		c := cfg
		c.Seed += rep - 1
		return c
	}, func(r *core.Result) ([]float64, error) {
		if observe != nil {
			observe(r)
		}
		return []float64{r.Summary.ThroughputKbps, r.Summary.Goodput,
			r.Summary.RetransmittedKB(), float64(r.Summary.Timeouts)}, nil
	})
	outs, err := (*Ledger)(nil).settle(ctx, opt, []point{{key, run}}, opt.slots())
	if err != nil {
		return nil, nil, err
	}
	return outs[0].Reps, outs[0].Quarantine, nil
}

// Fingerprint exposes the result-affecting options digest that keys
// checkpoint compatibility (see Options.fingerprint). wtcpd names its
// per-campaign-class sweep ledgers by a hash of this string so
// overlapping sweep requests land in — and warm-start from — the same
// file.
func Fingerprint(opt Options) string {
	return opt.WithDefaults().fingerprint()
}
