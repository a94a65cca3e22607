package fleet

import (
	"fmt"
	"math"
	"time"

	"wtcp/internal/experiment"
)

// Wire protocol between coordinator and workers: four JSON-over-HTTP
// endpoints rooted at the coordinator's base URL.
//
//	GET  /v1/campaign  -> Campaign        (workers fetch the manifest)
//	POST /v1/lease     -> leaseReply      (request a work unit)
//	POST /v1/renew     -> renewReply      (heartbeat a held lease)
//	POST /v1/result    -> resultReply     (deliver a unit's outcome and,
//	                                       with next, get the next grant)
//
// The protocol is deliberately boring — request/response, no streaming,
// no worker-side server — because every robustness property lives in
// the state machine, not the transport: a lease is only held while
// renewals keep arriving, and a result is only counted if its key is
// not yet settled in the ledger.
//
// A busy worker makes one RPC per point: its result post asks for the
// next grant (Next), and the reply carries it in the leaseReply shape —
// a unit, a wait, or done. It calls /v1/lease only to start and after a
// wait. The grant is idempotent per posted lease: a duplicated or
// retried post of the same lease gets the same grant back, never a
// second one. A grant lost with its reply is a lease nobody holds; it
// lapses at its TTL and the unit is granted again, like any silent
// holder's. A post without Next (an older worker, or the failure report)
// gets no grant, so nothing is stranded.

// workUnit is one leased sweep point.
type workUnit struct {
	// Lease identifies this grant; renewals and the result must echo it.
	Lease uint64 `json:"lease"`
	// Key is the point's ledger key (also derivable from Spec; sent so
	// workers can log and report without recomputing).
	Key string `json:"key"`
	// Spec is the point to execute.
	Spec experiment.PointSpec `json:"spec"`
	// TTLMs is the lease duration; the worker must renew well inside it.
	TTLMs int64 `json:"ttl_ms"`
	// Stolen marks a straggler re-dispatch: another worker still holds
	// an older lease on the same point and the first finisher wins.
	Stolen bool `json:"stolen,omitempty"`
}

// leaseRequest asks for work. Health piggybacks the worker's engine
// heartbeat so the coordinator's fleet snapshot stays current without a
// separate telemetry channel.
type leaseRequest struct {
	Worker string                     `json:"worker"`
	Health *experiment.HealthSnapshot `json:"health,omitempty"`
}

// leaseReply grants a unit, asks the worker to wait, or ends the
// campaign.
type leaseReply struct {
	// Done tells the worker the campaign is over (all points settled, or
	// the campaign failed); the worker exits.
	Done bool `json:"done,omitempty"`
	// Unit is the granted work unit, nil when none is available.
	Unit *workUnit `json:"unit,omitempty"`
	// WaitMs asks an idle worker to poll again after this long (set when
	// Unit is nil and Done is false: all remaining points are leased to
	// live holders and none qualifies for stealing yet).
	WaitMs int64 `json:"wait_ms,omitempty"`
}

// renewRequest heartbeats a held lease.
type renewRequest struct {
	Worker string                     `json:"worker"`
	Lease  uint64                     `json:"lease"`
	Health *experiment.HealthSnapshot `json:"health,omitempty"`
}

// renewReply extends the lease or tells the worker to abandon the unit
// (the lease expired or the point settled first — e.g. a thief won).
type renewReply struct {
	OK    bool  `json:"ok"`
	TTLMs int64 `json:"ttl_ms,omitempty"`
}

// resultRequest delivers a unit's outcome. Exactly one of
// Outcome.Reps, Outcome.Quarantine, or Failure is meaningful.
type resultRequest struct {
	Worker  string                  `json:"worker"`
	Lease   uint64                  `json:"lease"`
	Outcome experiment.PointOutcome `json:"outcome"`
	// Failure carries a fail-fast error (protocol bug, panic): the
	// campaign must stop, not retry, exactly as the sequential engine
	// would.
	Failure string                     `json:"failure,omitempty"`
	Health  *experiment.HealthSnapshot `json:"health,omitempty"`
	// Next asks for the worker's next grant in the reply, saving the
	// /v1/lease round trip.
	Next bool `json:"next,omitempty"`
}

// resultReply acknowledges a result post. Both a fresh accept and a
// duplicate drop return HTTP 200 — the worker's obligation ends either
// way; Duplicate is telemetry. Next is the grant a post with Next asked
// for (nil otherwise).
type resultReply struct {
	Accepted  bool        `json:"accepted"`
	Duplicate bool        `json:"duplicate,omitempty"`
	Next      *leaseReply `json:"next,omitempty"`
}

// check refuses a grant the worker cannot act on: a unit whose key is
// not its spec's, or whose TTL gives no renewal interval.
func (r leaseReply) check() error {
	u := r.Unit
	if u == nil {
		return nil
	}
	if u.TTLMs <= 0 || u.TTLMs > math.MaxInt64/int64(time.Millisecond) {
		return fmt.Errorf("fleet: grant of lease %d has ttl_ms %d, want a positive duration", u.Lease, u.TTLMs)
	}
	key, err := u.Spec.Key()
	if err != nil {
		return fmt.Errorf("fleet: grant of lease %d: %w", u.Lease, err)
	}
	if key != u.Key {
		return fmt.Errorf("fleet: grant of lease %d names point %q but carries the spec of %q", u.Lease, u.Key, key)
	}
	return nil
}

// check refuses a result whose outcome cannot be recorded as its own
// key's: neither replications nor a quarantine, both, or a quarantine
// filed under another key.
func (r resultRequest) check() error {
	o := r.Outcome
	switch {
	case r.Failure != "":
		return nil
	case o.Quarantine == nil && len(o.Reps) == 0:
		return fmt.Errorf("fleet: result for %q carries neither replications nor a quarantine", o.Key)
	case o.Quarantine != nil && len(o.Reps) > 0:
		return fmt.Errorf("fleet: result for %q carries both replications and a quarantine", o.Key)
	case o.Quarantine != nil && o.Quarantine.Key != o.Key:
		return fmt.Errorf("fleet: result for %q carries the quarantine of %q", o.Key, o.Quarantine.Key)
	}
	return nil
}
