package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"wtcp/internal/experiment"
)

// Lease and stealing policy. The straggler threshold mirrors the PR-5
// engine heartbeat (4x the median, after a minimum sample count) so the
// same signal that logs a slow replication inside one process triggers
// re-dispatch across processes.
const (
	// leaseTTL is how long a lease lives without renewal. Workers renew
	// at TTL/3, so a healthy worker is never near expiry; only a dead or
	// partitioned one lapses.
	leaseTTL = 10 * time.Second

	// stealFactor and stealMinSamples gate work stealing: a unit leased
	// for more than stealFactor times the median settle time (measured
	// over at least stealMinSamples settled units) may be re-leased to
	// an idle worker.
	stealFactor     = 4.0
	stealMinSamples = 3
	// maxHolders bounds concurrent leases on one unit: the original
	// holder plus one thief. A second thief buys nothing — the point is
	// deterministic — and would just burn CPU.
	maxHolders = 2

	// idleWaitMs is how long an idle worker is told to wait before
	// re-polling when no unit is grantable.
	idleWaitMs = 200
)

// unitStatus is a work unit's lifecycle state.
type unitStatus int

const (
	unitPending unitStatus = iota // queued, no live lease
	unitLeased                    // at least one live lease
	unitSettled                   // recorded in the ledger, final
)

// unit is the coordinator's record of one sweep point.
type unit struct {
	spec   experiment.PointSpec
	key    string
	status unitStatus
	// holders maps live lease IDs to their grant records.
	holders map[uint64]*lease
}

// lease is one live grant of a unit to a worker.
type lease struct {
	id      uint64
	unit    *unit
	worker  string
	granted time.Time
	renewed time.Time
	stolen  bool
}

// Reassignment records one lease that expired and sent its unit back to
// the queue — the audit trail for "which worker lost which point".
type Reassignment struct {
	Key    string
	Worker string
	// Stolen distinguishes a straggler steal (original holder was still
	// renewing) from an expiry (holder went silent).
	Stolen bool
}

// WorkerProgress is one worker's share of the settled units.
type WorkerProgress struct {
	Name      string
	Completed int
}

// Snapshot is the fleet's progress: the campaign's units, the lease
// ledger's robustness counters, and each worker's settled units.
type Snapshot struct {
	TotalUnits, Settled, Leased, Quarantined int
	Expired, Stolen, Duplicates, LateResults int
	Reassigned                               []Reassignment
	Workers                                  []WorkerProgress
	// Failure is the fail-fast error that ended the campaign, if any.
	Failure string
}

// Coordinator shards a campaign across workers. It owns the ledger (the
// exactly-once record), the lease table (the at-least-once dispatcher),
// and the fleet's progress snapshot. All HTTP handlers and the expiry
// sweeper serialize on mu; handlers do no I/O while holding it except
// the ledger write that settles a point, which must be atomic with the
// settled-state flip.
type Coordinator struct {
	campaign Campaign
	ledger   *experiment.Ledger
	leaseTTL time.Duration

	mu        sync.Mutex
	units     map[string]*unit // by key
	order     []string         // canonical point order, for logs and snapshots
	pending   []string         // keys awaiting (re)dispatch, FIFO
	leases    map[uint64]*lease
	nextLease uint64
	// grants holds, by the lease a result post delivered, the unit that
	// post was granted: a duplicate or retry of the post gets it again.
	grants map[uint64]*workUnit
	// completed counts, by every worker seen, the units it settled.
	completed map[string]int
	// settled counts units in unitSettled, so the lease and result
	// handlers need not walk every unit per RPC.
	settled int
	// durations holds wall-clock settle times of settled units (seconds),
	// kept sorted on insert: the base of the steal threshold's median.
	durations   []float64
	expired     int
	stolen      int
	duplicates  int
	lateResults int
	reassigned  []Reassignment
	failure     string
	done        chan struct{}
	doneOnce    sync.Once
	stopSweep   chan struct{}
	sweepOnce   sync.Once
}

// CoordinatorConfig configures NewCoordinator.
type CoordinatorConfig struct {
	// Campaign is the validated manifest.
	Campaign Campaign
	// LedgerPath is the checkpoint file results merge into.
	LedgerPath string
	// leaseTTL, when positive, overrides the lease TTL (tests shorten
	// it).
	leaseTTL time.Duration
}

// NewCoordinator opens the ledger, enumerates the campaign's point
// grid, and queues every point not already settled (so a restarted
// campaign resumes where it left off, exactly like the sequential
// engine against the same checkpoint).
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.Campaign.Validate(); err != nil {
		return nil, err
	}
	if cfg.LedgerPath == "" {
		return nil, fmt.Errorf("fleet: coordinator needs a ledger path")
	}
	opt, err := cfg.Campaign.Options()
	if err != nil {
		return nil, err
	}
	specs, err := cfg.Campaign.Specs()
	if err != nil {
		return nil, err
	}
	ledger, err := experiment.OpenLedger(cfg.LedgerPath, opt)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		campaign:  cfg.Campaign,
		ledger:    ledger,
		leaseTTL:  cfg.leaseTTL,
		units:     make(map[string]*unit, len(specs)),
		leases:    map[uint64]*lease{},
		grants:    map[uint64]*workUnit{},
		completed: map[string]int{},
		done:      make(chan struct{}),
		stopSweep: make(chan struct{}),
	}
	if c.leaseTTL <= 0 {
		c.leaseTTL = leaseTTL
	}
	for _, spec := range specs {
		key, err := spec.Key()
		if err != nil {
			ledger.Close()
			return nil, err
		}
		if _, dup := c.units[key]; dup {
			// Overlapping sweeps (fig7+fig9 share WAN configs but use
			// different keys; identical sweeps listed twice don't) would
			// double-queue; keep the first.
			continue
		}
		u := &unit{spec: spec, key: key, holders: map[uint64]*lease{}}
		if ledger.Has(key) {
			u.status = unitSettled
			c.settled++
		} else {
			c.pending = append(c.pending, key)
		}
		c.units[key] = u
		c.order = append(c.order, key)
	}
	if c.settled == len(c.order) {
		c.doneOnce.Do(func() { close(c.done) })
	}
	go c.sweepExpiry()
	return c, nil
}

// Handler returns the coordinator's HTTP mux.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/campaign", c.handleCampaign)
	mux.HandleFunc("/v1/lease", c.handleLease)
	mux.HandleFunc("/v1/renew", c.handleRenew)
	mux.HandleFunc("/v1/result", c.handleResult)
	return mux
}

// Done is closed when every unit is settled or the campaign fails.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Err returns the fail-fast error that ended the campaign, if any.
// Meaningful once Done is closed.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != "" {
		return fmt.Errorf("fleet: campaign failed: %s", c.failure)
	}
	return nil
}

// Close stops the expiry sweeper and releases the ledger lock (so the
// merge pass can reopen the file).
func (c *Coordinator) Close() {
	c.sweepOnce.Do(func() { close(c.stopSweep) })
	c.ledger.Close()
}

// handleCampaign serves the manifest so every worker runs under the
// exact options the ledger is fingerprinted with.
func (c *Coordinator) handleCampaign(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.campaign)
}

// handleLease grants a work unit: a pending unit if any, else a stolen
// straggler, else a wait hint (or Done when the campaign is over).
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteWorkerLocked(req.Worker)
	writeJSON(w, c.leaseLocked(req.Worker))
}

// leaseLocked decides what worker gets next: Done when the campaign is
// over, else a pending unit, else a stolen straggler, else a wait hint.
func (c *Coordinator) leaseLocked(worker string) leaseReply {
	if c.failure != "" || c.settled == len(c.order) {
		return leaseReply{Done: true}
	}
	if u := c.nextPendingLocked(); u != nil {
		return leaseReply{Unit: c.grantLocked(u, worker, false)}
	}
	if u := c.stealableLocked(); u != nil {
		c.stolen++
		return leaseReply{Unit: c.grantLocked(u, worker, true)}
	}
	return leaseReply{WaitMs: idleWaitMs}
}

// nextLocked answers a result post's request for the next grant: the
// unit already granted for the posted lease when the post is a
// duplicate or a retry, else a fresh decision (remembered when it is a
// unit).
func (c *Coordinator) nextLocked(posted uint64, worker string) *leaseReply {
	if u, ok := c.grants[posted]; ok {
		return &leaseReply{Unit: u}
	}
	rep := c.leaseLocked(worker)
	if rep.Unit != nil {
		c.grants[posted] = rep.Unit
	}
	return &rep
}

// nextPendingLocked pops the next dispatchable pending unit.
func (c *Coordinator) nextPendingLocked() *unit {
	for len(c.pending) > 0 {
		key := c.pending[0]
		c.pending = c.pending[1:]
		u := c.units[key]
		// A queued key can have settled in the meantime (late result) or
		// been re-leased by stealing; skip those.
		if u.status == unitPending {
			return u
		}
	}
	return nil
}

// stealableLocked finds a leased unit whose oldest lease has been held
// longer than stealFactor times the median settle time, with room for
// another holder. Returns nil before enough units settled to trust the
// median.
func (c *Coordinator) stealableLocked() *unit {
	if len(c.durations) < stealMinSamples {
		return nil
	}
	threshold := stealFactor * experiment.MedianOf(c.durations)
	var best *unit
	var bestAge float64
	for _, key := range c.order {
		u := c.units[key]
		if u.status != unitLeased || len(u.holders) >= maxHolders {
			continue
		}
		if age := c.oldestHoldSecLocked(u); age > threshold && age > bestAge {
			best, bestAge = u, age
		}
	}
	return best
}

// oldestHoldSecLocked returns the age in seconds of the unit's oldest
// live lease.
func (c *Coordinator) oldestHoldSecLocked(u *unit) float64 {
	var oldest float64
	for _, l := range u.holders {
		if age := time.Since(l.granted).Seconds(); age > oldest {
			oldest = age
		}
	}
	return oldest
}

// grantLocked issues a new lease on u to worker.
func (c *Coordinator) grantLocked(u *unit, worker string, stolen bool) *workUnit {
	c.nextLease++
	now := time.Now()
	l := &lease{id: c.nextLease, unit: u, worker: worker, granted: now, renewed: now, stolen: stolen}
	u.holders[l.id] = l
	u.status = unitLeased
	c.leases[l.id] = l
	return &workUnit{
		Lease:  l.id,
		Key:    u.key,
		Spec:   u.spec,
		TTLMs:  c.leaseTTL.Milliseconds(),
		Stolen: stolen,
	}
}

// handleRenew extends a live lease. A renewal for an expired lease or a
// settled unit answers OK=false: the worker abandons the unit (its work
// either already counted or will be redone by the new holder —
// deterministic either way).
func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req renewRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteWorkerLocked(req.Worker)
	l, ok := c.leases[req.Lease]
	if !ok || l.unit.status == unitSettled {
		writeJSON(w, renewReply{OK: false})
		return
	}
	l.renewed = time.Now()
	writeJSON(w, renewReply{OK: true, TTLMs: c.leaseTTL.Milliseconds()})
}

// handleResult settles a unit. This is where at-least-once dispatch
// narrows to exactly-once accounting: the first result for a key is
// recorded in the ledger; any later result for the same key — a
// duplicated post, a stolen race's loser, an expired lease's late
// arrival — is acknowledged and dropped.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := req.check(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.mu.Lock()
	c.noteWorkerLocked(req.Worker)

	if req.Failure != "" {
		if c.failure == "" {
			c.failure = fmt.Sprintf("worker %s on %s: %s", req.Worker, req.Outcome.Key, req.Failure)
			c.doneOnce.Do(func() { close(c.done) })
		}
		c.mu.Unlock()
		writeJSON(w, resultReply{Accepted: true})
		return
	}

	key := req.Outcome.Key
	u := c.units[key]
	if u == nil {
		c.mu.Unlock()
		httpError(w, http.StatusBadRequest, "fleet: result for unknown point %q", key)
		return
	}
	l, liveLease := c.leases[req.Lease]
	if !liveLease {
		c.lateResults++
	}
	if u.status == unitSettled {
		c.duplicates++
		if liveLease {
			c.releaseLocked(l)
		}
		rep := resultReply{Accepted: true, Duplicate: true}
		if req.Next {
			rep.Next = c.nextLocked(req.Lease, req.Worker)
		}
		c.mu.Unlock()
		writeJSON(w, rep)
		return
	}

	// Record first, then flip state: if the ledger write fails the unit
	// stays dispatchable and the worker sees an error and retries.
	if q := req.Outcome.Quarantine; q != nil {
		q.Worker = req.Worker
	}
	if _, err := c.ledger.Record(req.Outcome); err != nil {
		c.mu.Unlock()
		httpError(w, http.StatusInternalServerError, "fleet: record %s: %v", key, err)
		return
	}
	u.status = unitSettled
	c.settled++
	if liveLease && l.unit == u {
		sec := time.Since(l.granted).Seconds()
		i, _ := slices.BinarySearch(c.durations, sec)
		c.durations = slices.Insert(c.durations, i, sec)
	}
	for id := range u.holders {
		c.releaseLocked(c.leases[id])
	}
	if req.Worker != "" {
		c.completed[req.Worker]++
	}
	if c.settled == len(c.order) {
		c.doneOnce.Do(func() { close(c.done) })
	}
	rep := resultReply{Accepted: true}
	if req.Next {
		rep.Next = c.nextLocked(req.Lease, req.Worker)
	}
	c.mu.Unlock()
	writeJSON(w, rep)
}

// releaseLocked drops a lease from the tables; nil-safe.
func (c *Coordinator) releaseLocked(l *lease) {
	if l == nil {
		return
	}
	delete(c.leases, l.id)
	delete(l.unit.holders, l.id)
}

// noteWorkerLocked registers a worker the first time it calls.
func (c *Coordinator) noteWorkerLocked(name string) {
	if _, seen := c.completed[name]; !seen && name != "" {
		c.completed[name] = 0
	}
}

// sweepExpiry retires lapsed leases every TTL/2. A unit whose last
// lease lapsed goes back to the pending queue — this is the path that
// recovers a killed worker's points.
func (c *Coordinator) sweepExpiry() {
	t := time.NewTicker(c.leaseTTL / 2)
	defer t.Stop()
	for {
		select {
		case <-c.stopSweep:
			return
		case <-t.C:
			c.expireLeases()
		}
	}
}

// expireLeases drops every lease not renewed within the TTL and
// re-queues units left holderless.
func (c *Coordinator) expireLeases() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	for _, l := range c.leases {
		if now.Sub(l.renewed) <= c.leaseTTL {
			continue
		}
		c.expired++
		u := l.unit
		c.releaseLocked(l)
		if u.status == unitLeased && len(u.holders) == 0 {
			u.status = unitPending
			c.pending = append(c.pending, u.key)
			c.reassigned = append(c.reassigned, Reassignment{Key: u.key, Worker: l.worker, Stolen: l.stolen})
		}
	}
}

// Snapshot reports campaign progress, robustness counters, and every
// worker's settled units, workers by name.
func (c *Coordinator) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := Snapshot{
		TotalUnits:  len(c.order),
		Settled:     c.settled,
		Quarantined: len(c.ledger.Quarantined()),
		Expired:     c.expired,
		Stolen:      c.stolen,
		Duplicates:  c.duplicates,
		LateResults: c.lateResults,
		Reassigned:  append([]Reassignment(nil), c.reassigned...),
		Failure:     c.failure,
	}
	for _, u := range c.units {
		if u.status == unitLeased {
			snap.Leased++
		}
	}
	for name, n := range c.completed {
		snap.Workers = append(snap.Workers, WorkerProgress{Name: name, Completed: n})
	}
	sort.Slice(snap.Workers, func(i, k int) bool { return snap.Workers[i].Name < snap.Workers[k].Name })
	return snap
}

// writeJSON encodes v as the response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// readJSON decodes the request body into v, answering 400 on failure.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "fleet: bad request: %v", err)
		return false
	}
	return true
}

// httpError answers an error with a plain-text body the worker can
// surface.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}
