package experiment

import (
	"context"

	"wtcp/internal/core"
)

// This file is the engine's service face: the hooks wtcpd
// (internal/serve) uses to execute arbitrary scenario requests with the
// full engine policy stack — worker pool, retry/backoff schedule,
// failure classification, repro-bundle capture, health telemetry — and
// to name its shared point ledgers.

// RunCustom executes one caller-defined point: Replications runs of the
// configurations built by build, samples extracted by extract, under
// exactly the sequential engine's policies (same retry seeds and
// backoff schedule, same classification, same supervision semantics as
// a sweep point). build receives the 1-based replication index as its
// seed argument, like the figure-sweep builders; measure may refuse a
// result, failing its attempt (see coreReplication). With one worker the
// replications run in seed order on the caller's goroutine, so measure
// may keep state across them. The outcome mirrors
// RunPointSpec: seed-ordered records on success, a Quarantine when
// opt.Supervise is armed and the point's breaker trips, or an error
// for fail-fast classes and cancellation.
func RunCustom(ctx context.Context, opt Options, key string,
	build func(seed int64) core.Config, measure func(*core.Result) ([]float64, error)) ([]RepRecord, *Quarantine, error) {
	opt = opt.WithDefaults()
	return executePoint(ctx, opt, key, coreReplication(build, measure))
}

// Fingerprint exposes the result-affecting options digest that keys
// checkpoint compatibility (see Options.fingerprint). wtcpd names its
// per-campaign-class sweep ledgers by a hash of this string so
// overlapping sweep requests land in — and warm-start from — the same
// file.
func Fingerprint(opt Options) string {
	return opt.WithDefaults().fingerprint()
}
