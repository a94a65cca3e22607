package serve

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// metrics is the server's counter set, rendered in the Prometheus text
// exposition format by /metrics. Counters only ever increase; gauges
// (in-flight, queued, cache occupancy) are sampled at render time. The
// wtcpd_engine_* rows render the engine's experiment.HealthSnapshot,
// one row per numeric field named after its JSON field, from one
// snapshot per scrape.
type metrics struct {
	requests         atomic.Uint64
	badRequests      atomic.Uint64
	accepted         atomic.Uint64
	rejectedBusy     atomic.Uint64
	rejectedBreaker  atomic.Uint64
	rejectedDraining atomic.Uint64
	cacheHits        atomic.Uint64
	executed         atomic.Uint64
	completed        atomic.Uint64
	failed           atomic.Uint64
	drained          atomic.Uint64
	resumed          atomic.Uint64
	deadlines        atomic.Uint64
}

// render emits the exposition text. The server passes live gauges in.
func (m *metrics) render(s *Server) string {
	var b strings.Builder
	row := func(kind, name, help string, v any) {
		fmt.Fprintf(&b, "# HELP wtcpd_%s %s\n# TYPE wtcpd_%s %s\nwtcpd_%s %v\n", name, help, name, kind, name, v)
	}
	counter := func(name, help string, v uint64) { row("counter", name, help, v) }
	gauge := func(name, help string, v any) { row("gauge", name, help, v) }
	counter("requests_total", "Query requests received (run, sweep, advise).", m.requests.Load())
	counter("bad_requests_total", "Requests rejected as malformed (400).", m.badRequests.Load())
	counter("accepted_total", "Requests that won a run slot and were journaled.", m.accepted.Load())
	counter("rejected_busy_total", "Requests shed with 429 (slots and queue full).", m.rejectedBusy.Load())
	counter("rejected_breaker_total", "Requests shed by a tripped breaker (422/503).", m.rejectedBreaker.Load())
	counter("rejected_draining_total", "Requests shed with 503 during drain.", m.rejectedDraining.Load())
	counter("cache_hits_total", "Requests answered from the result cache.", m.cacheHits.Load())
	counter("executed_total", "Fresh executions started on the engine.", m.executed.Load())
	counter("completed_total", "Executions that finished and were cached.", m.completed.Load())
	counter("failed_total", "Executions that ended in a failure answer.", m.failed.Load())
	counter("deadline_expired_total", "Executions killed by the request deadline (504).", m.deadlines.Load())
	counter("drained_total", "Accepted requests checkpointed by a drain (journal kept).", m.drained.Load())
	counter("resumed_total", "Journaled requests re-executed after a restart.", m.resumed.Load())

	gauge("in_flight", "Run slots currently held.", int64(s.adm.inFlight()))
	gauge("queued", "Requests waiting for a run slot.", int64(s.adm.queued()))
	gauge("slots", "Configured run-slot capacity.", int64(s.adm.slotCount()))
	entries, bytes, evictions := s.cache.stats()
	gauge("cache_entries", "Result-cache entries resident.", int64(entries))
	gauge("cache_bytes", "Result-cache bytes resident.", bytes)
	counter("cache_evictions_total", "Result-cache entries evicted under the byte cap.", evictions)
	segments, diskBytes, compactions, corrupt := s.cache.diskStats()
	gauge("cache_segments", "Result-cache segment files on disk.", int64(segments))
	gauge("cache_disk_bytes", "Result-cache bytes on disk, live and dead.", diskBytes)
	counter("cache_compactions_total", "Result-cache segments rewritten to reclaim dead bytes.", compactions)
	counter("cache_corrupt_total", "Result-cache entries dropped because their record failed verification.", corrupt)
	gauge("journal_entries", "Accepted requests pending in the journal.", int64(s.jour.entries()))
	perm, cooling := s.brk.counts()
	gauge("breaker_permanent", "Fingerprints permanently failed (protocol-bug/panic).", int64(perm))
	gauge("breaker_cooling", "Scenario classes currently cooling down.", int64(cooling))

	snap := s.health.Snapshot()
	counter("engine_completed_total", "Replications the engine completed.", snap.Completed)
	counter("engine_failed_total", "Replication attempts that failed or aborted.", snap.Failed)
	counter("engine_retried_total", "Perturbed-seed retries.", snap.Retried)
	counter("engine_quarantined_total", "Points quarantined by the circuit breaker.", snap.Quarantined)
	counter("engine_events_processed_total", "Kernel events fired across all replications.", snap.EventsProcessed)
	gauge("engine_active_runs", "Replications in flight.", int64(len(snap.ActiveRuns)))
	gauge("engine_median_run_sec", "Median wall-clock seconds of the last 1024 completed replications.", snap.MedianRunSec)
	gauge("engine_heap_bytes", "Live heap object bytes.", snap.HeapBytes)
	return b.String()
}
