package experiment

import (
	"context"

	"wtcp/internal/core"
)

// This file is the engine's service face: the hooks wtcpd
// (internal/serve) uses to execute arbitrary scenario requests with the
// full engine policy stack and to name its shared point ledgers.

// RunCustom executes one caller-defined point — Replications runs of
// the configurations build makes from the 1-based replication index,
// measured by measure, which may refuse a result (see coreReplication)
// — with no ledger, under a sweep point's policies and on the scheduler
// at a width of Workers. With one worker the replications run in seed
// order on the caller's goroutine, so measure may keep state across
// them. The outcome mirrors RunPointSpec's.
func RunCustom(ctx context.Context, opt Options, key string,
	build func(seed int64) core.Config, measure func(*core.Result) ([]float64, error)) ([]RepRecord, *Quarantine, error) {
	opt = opt.WithDefaults()
	outs, err := (*Ledger)(nil).settle(ctx, opt, []point{{key, coreReplication(build, measure)}}, opt.slots())
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
