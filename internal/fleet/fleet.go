// Package fleet distributes a sweep campaign across workers without
// giving up any guarantee the single-process engine provides.
//
// A user runs a campaign by POSTing its manifest (experiment.Campaign,
// the one manifest type) to wtcpd's /v1/sweep (internal/serve). The
// coordinator/worker pair here has no command of its own and one
// importer: it is the remote executor the measurement spine's
// wan_ladder fleet rung times (bench/wan.go), through RunLocal,
// NewCoordinator and RunWorker.
//
// The shape is coordinator/worker over plain HTTP+JSON: the coordinator
// enumerates a campaign's point grid (experiment.SweepSpecs), shards it
// into work units, and leases units to workers; each worker executes
// its point exactly as the sequential engine would (same seeds, same
// failure policy — experiment.RunPointSpec) and posts the raw
// replication records back. The coordinator merges results into the
// engine's own checkpoint file (experiment.Ledger), so running the
// ordinary figure sweeps against the merged file reloads every point
// and produces output byte-identical to a single-process run.
//
// The robustness machinery is the point of the package:
//
//   - Leases expire. A worker holds a unit only while its heartbeat
//     (lease renewal) keeps arriving; a killed, hung, or partitioned
//     worker stops renewing, the lease lapses, and the unit returns to
//     the queue for reassignment. Nothing is lost.
//   - The ledger is the exactly-once boundary. Dispatch is at-least-once
//     by design (expiry and work stealing both re-issue units), but a
//     point settles exactly once: the first result recorded wins, and
//     every later post for the same key — a duplicated HTTP request, a
//     stolen unit's loser, a lease that expired in flight — is
//     acknowledged and dropped. Replications are deterministic, so the
//     duplicate would have carried identical bits anyway.
//   - Stragglers are stolen from. An idle worker re-leases a unit whose
//     holder has worked it for more than 4x the median unit time (the
//     PR-5 straggler signal applied at the fleet layer); first finisher
//     settles the point.
//   - Transient worker errors back off. Workers retry failed RPCs under
//     capped exponential backoff with deterministic jitter, and
//     pathological points quarantine through the same per-point circuit
//     breaker as the sequential engine, with the holding worker recorded
//     for the report's attribution table.
package fleet

import "wtcp/internal/experiment"

// Campaign is the manifest the coordinator shards and serves to its
// workers.
type Campaign = experiment.Campaign
