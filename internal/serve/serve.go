// Package serve is wtcpd's core: a long-running HTTP query service
// over the governed experiment engine that defends itself under load
// instead of falling over.
//
//	POST /v1/run          execute one scenario (internal/scenario schema)
//	POST /v1/sweep        execute a campaign (experiment.Campaign manifest)
//	GET  /v1/advise       §4.1 packet-size recommendation for an error climate
//	GET  /v1/result/{fp}  fetch a previously computed result by fingerprint
//	GET  /healthz         engine heartbeat (experiment.HealthSnapshot schema)
//	GET  /metrics         Prometheus text exposition
//
// The robustness invariants, each pinned by an acceptance test:
//
//   - Bounded admission. At most Slots requests execute and QueueDepth
//     wait; everything past that is shed immediately with 429 and a
//     finite Retry-After derived from the live median run time. Load
//     never queues unboundedly.
//   - Content-addressed results. A request's fingerprint hashes exactly
//     its result-affecting content (seeds in, deadlines and budgets
//     out), the cache stores the precise response bytes, and concurrent
//     identical requests coalesce into one execution (single-flight). A
//     repeat answer is byte-identical to the fresh one. An answer that
//     carries a resource-exhausted quarantine holds only under budgets
//     no larger than the one it exhausted (experiment.Ledger): it is
//     neither cached nor shared with a request of another budget.
//   - Deadline propagation. The client's deadline bounds the request
//     context, which each run's kernel polls between events, so a hung
//     or pathological point cannot pin a slot.
//   - Taxonomy-driven shedding. Deterministic failures (protocol-bug,
//     panic) permanently fail their fingerprint with a repro-bundle
//     pointer; resource exhaustion cools down the whole scenario class
//     at admission (see breaker.go).
//   - Graceful drain. Drain stops admission, lets in-flight work finish
//     within a grace period, then cancels it; canceled work keeps its
//     journal entry (sweeps additionally keep every finished point in
//     their checkpoint) and a restarted server resumes and caches it.
//     Accepted work is never silently lost.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"wtcp/internal/atomicfile"
	"wtcp/internal/core"
	"wtcp/internal/experiment"
	"wtcp/internal/scenario"
	"wtcp/internal/sim"
)

// maxDeadline caps client-requested deadlines so one request cannot
// reserve a slot for an afternoon.
const maxDeadline = 10 * time.Minute

// Config tunes the server. Zero values take the documented defaults.
type Config struct {
	// DataDir holds everything the server persists: the result cache
	// (results/), the accepted-work journal (pending/), point ledgers
	// (points-*.ckpt), and repro bundles (repro/). Required.
	DataDir string
	// Slots bounds concurrently executing requests and is the simulation
	// width: a sweep or advise request runs its replications on its own
	// slot plus every free one it can borrow (default 2).
	Slots int
	// QueueDepth bounds requests waiting for a slot (default 2*Slots).
	QueueDepth int
	// CacheBytes caps the result cache (default 256 MiB; negative
	// disables the cap).
	CacheBytes int64
	// DefaultDeadline bounds requests that name no deadline_ms
	// (default 2m).
	DefaultDeadline time.Duration
	// BreakerCooldown is how long a resource-exhausted scenario class
	// is rejected at admission (default 30s).
	BreakerCooldown time.Duration
	// Retries is the engine per-replication retry budget (engine
	// semantics: 0 means the default of 1, negative disables).
	Retries int
	// Health receives run telemetry and backs /healthz; a fresh
	// collector is created when nil.
	Health *experiment.Health
}

func (c Config) withDefaults() Config {
	if c.Slots <= 0 {
		c.Slots = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Slots
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	return c
}

// Server is one wtcpd instance. Create with New, wire Handler into an
// http.Server, call Resume to pick up journaled work from a previous
// life, and Drain then Close on the way out.
type Server struct {
	cfg    Config
	health *experiment.Health
	cache  *diskCache
	jour   *journal
	unlock func() // releases the data-directory lock
	adm    *admission
	brk    *breaker
	met    metrics

	// runCtx parents every execution; canceling it is the drain hammer.
	runCtx     context.Context
	cancelRuns context.CancelFunc

	mu       sync.Mutex
	draining bool
	closed   bool
	flights  map[string]*flight
	ledgers  map[string]*experiment.Ledger
	wg       sync.WaitGroup
}

// New opens (or creates) the server state under cfg.DataDir.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("serve: Config.DataDir is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "repro"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: repro dir: %w", err)
	}
	// The journal and the cache are appended to in place, so two servers
	// on one directory would interleave records: the second fails here.
	unlock, err := atomicfile.Lock(filepath.Join(cfg.DataDir, "wtcpd.lock"))
	if err != nil {
		return nil, fmt.Errorf("serve: data directory %s: %w; two servers must not share one data directory", cfg.DataDir, err)
	}
	cache, err := openDiskCache(filepath.Join(cfg.DataDir, "results"), cfg.CacheBytes, cacheSegmentBytes)
	if err != nil {
		unlock()
		return nil, err
	}
	jour, err := openJournal(filepath.Join(cfg.DataDir, "pending"))
	if err != nil {
		cache.close()
		unlock()
		return nil, err
	}
	health := cfg.Health
	if health == nil {
		health = experiment.NewHealth()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		health:     health,
		cache:      cache,
		jour:       jour,
		unlock:     unlock,
		adm:        newAdmission(cfg.Slots, cfg.QueueDepth),
		brk:        newBreaker(cfg.BreakerCooldown),
		runCtx:     ctx,
		cancelRuns: cancel,
		flights:    map[string]*flight{},
		ledgers:    map[string]*experiment.Ledger{},
	}, nil
}

// Health returns the server's heartbeat collector (for CLI status
// wiring).
func (s *Server) Health() *experiment.Health { return s.health }

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handlePost("run"))
	mux.HandleFunc("POST /v1/sweep", s.handlePost("sweep"))
	mux.HandleFunc("GET /v1/advise", s.handleAdvise)
	mux.HandleFunc("GET /v1/result/{fp}", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// flight is one single-flight execution unit: the first request for a
// fingerprint creates it, concurrent identical requests join it, and
// its lifecycle is detached from any client's connection — a
// disconnected client does not kill accepted work, it just isn't there
// to read the answer (which is cached for /v1/result anyway).
type flight struct {
	q    query
	done chan struct{}

	status     int
	body       []byte
	retryAfter int
	cacheable  bool
}

// startFlightLocked registers and starts q's flight. It is called with
// s.mu held and releases it.
func (s *Server) startFlightLocked(q query, resumed bool) *flight {
	f := &flight{q: q, done: make(chan struct{})}
	s.flights[q.fp] = f
	s.wg.Add(1)
	s.mu.Unlock()
	go s.runFlight(f, resumed)
	return f
}

func (f *flight) write(w http.ResponseWriter) {
	if f.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(f.retryAfter))
	}
	if f.status == http.StatusOK {
		// A flight's success is always a fresh computation.
		w.Header().Set("X-Wtcpd-Cache", "miss")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(f.status)
	w.Write(f.body)
}

// query is a parsed, validated, fingerprinted request ready to
// execute. exec answers under the address it is handed, which is fp.
type query struct {
	kind        string
	fp          string
	class       string
	journalBody []byte
	deadline    time.Duration
	// budget is the run budget asked for, which fp leaves out.
	budget sim.Budget
	exec   func(ctx context.Context, fp string) outcome
}

// outcome is a terminal execution result plus its policy consequences.
type outcome struct {
	status     int
	body       []byte
	retryAfter int
	// cacheable marks an answer worth storing under its address: a
	// complete, deterministic one that holds under any budget.
	cacheable bool
	failed    bool
	// deadlineExpired marks a 504 (request deadline, not drain).
	deadlineExpired bool
	// keepJournal marks drain-interrupted work that must survive into
	// the next server life.
	keepJournal bool
	// permClass, when a fail-fast class, permanently fails this
	// fingerprint.
	permClass  core.FailureClass
	permReason string
	// tripClass cools down the whole scenario class at admission.
	tripClass bool
}

// serveQuery runs the shared pipeline: permanent breaker, cache,
// class cooldown, drain gate, then single-flight + admission +
// execution.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, q query) {
	if pf, ok := s.brk.permanent(q.fp); ok {
		s.met.rejectedBreaker.Add(1)
		writeError(w, http.StatusUnprocessableEntity, 0, errorBody{
			Error:       fmt.Sprintf("request is a recorded deterministic failure (%s): %s", pf.Class, pf.Reason),
			Class:       pf.Class,
			Fingerprint: q.fp,
			ReproDir:    pf.ReproDir,
		})
		return
	}
	if data, ok := s.cache.get(q.fp); ok {
		s.met.cacheHits.Add(1)
		writeCached(w, data, "hit")
		return
	}
	if remaining, cooling := s.brk.rejected(q.class); cooling {
		s.met.rejectedBreaker.Add(1)
		sec := max(1, int(math.Ceil(remaining.Seconds())))
		writeError(w, http.StatusServiceUnavailable, sec, errorBody{
			Error:         fmt.Sprintf("scenario class %q is cooling down after resource exhaustion", q.class),
			Class:         string(core.ClassResourceExhausted),
			Fingerprint:   q.fp,
			RetryAfterSec: sec,
		})
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.rejectedDraining.Add(1)
		sec := s.retryAfterSec()
		writeError(w, http.StatusServiceUnavailable, sec, errorBody{
			Error: "server is draining", Fingerprint: q.fp, RetryAfterSec: sec,
		})
		return
	}
	if f, ok := s.flights[q.fp]; ok {
		s.mu.Unlock()
		s.awaitFlight(w, r, f, q)
		return
	}
	s.awaitFlight(w, r, s.startFlightLocked(q, false), q)
}

// awaitFlight blocks until the flight settles or the client leaves.
// The flight is deliberately not tied to the client context: accepted
// work completes and caches even if nobody is left to read the answer.
// An answer that is not cacheable may hold a quarantine the flight's
// budget forced, so q, if of another budget, is served afresh.
func (s *Server) awaitFlight(w http.ResponseWriter, r *http.Request, f *flight, q query) {
	select {
	case <-f.done:
	case <-r.Context().Done():
		return
	}
	if !f.cacheable && f.q.budget != q.budget {
		s.serveQuery(w, r, q)
		return
	}
	f.write(w)
}

// runFlight takes the flight through admission, journaling, execution,
// and policy bookkeeping. resumed marks journaled work from a previous
// server life (already accepted once — bypasses the queue bound and is
// never bounced with 429).
func (s *Server) runFlight(f *flight, resumed bool) {
	q := f.q
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.flights, q.fp)
		s.mu.Unlock()
		close(f.done)
	}()

	release, err := s.adm.acquire(s.runCtx, resumed)
	if err != nil {
		sec := s.retryAfterSec()
		if errors.Is(err, errBusy) {
			s.met.rejectedBusy.Add(1)
			f.status, f.retryAfter = http.StatusTooManyRequests, sec
			f.body = marshalError(errorBody{
				Error:         "all run slots and queue positions are busy",
				Fingerprint:   q.fp,
				RetryAfterSec: sec,
			})
		} else {
			// Drain started while this request was queued: it never held a
			// slot, so it was never accepted — shed it explicitly.
			s.met.rejectedDraining.Add(1)
			f.status, f.retryAfter = http.StatusServiceUnavailable, sec
			f.body = marshalError(errorBody{
				Error:         "server started draining while the request was queued",
				Fingerprint:   q.fp,
				RetryAfterSec: sec,
			})
		}
		return
	}
	defer release()

	// Holding a slot is the acceptance point: journal before executing,
	// so from here on the work either reaches a terminal answer or
	// survives into the next server life.
	if err := s.jour.put(pendingRequest{Kind: q.kind, Fingerprint: q.fp, Body: q.journalBody}); err != nil {
		s.met.failed.Add(1)
		f.status = http.StatusInternalServerError
		f.body = marshalError(errorBody{Error: err.Error(), Fingerprint: q.fp})
		return
	}
	s.met.accepted.Add(1)
	if resumed {
		s.met.resumed.Add(1)
	}
	s.met.executed.Add(1)

	d := q.deadline
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	ctx, cancel := context.WithTimeout(s.runCtx, min(d, maxDeadline))
	out := q.exec(ctx, q.fp)
	cancel()

	// Cache before retiring the journal entry: a process killed between
	// the two re-executes the request next life (same bytes, the put is a
	// no-op) instead of having neither the promise nor the answer.
	if out.cacheable {
		if err := s.cache.put(q.fp, out.body); err != nil {
			fmt.Fprintf(os.Stderr, "wtcpd: %v\n", err)
		}
	}
	if out.status == http.StatusOK {
		s.met.completed.Add(1)
	}
	if out.keepJournal {
		s.met.drained.Add(1)
	} else {
		s.jour.remove(q.fp)
	}
	if out.failed {
		s.met.failed.Add(1)
		if resumed {
			// Resumed work has no client waiting on the flight; a terminal
			// failure must at least reach the operator's log.
			fmt.Fprintf(os.Stderr, "wtcpd: resumed %s failed (HTTP %d): %s\n", q.fp[:12], out.status, out.body)
		}
	}
	if out.deadlineExpired {
		s.met.deadlines.Add(1)
	}
	if out.permClass != "" {
		s.brk.recordPermanent(q.fp, out.permClass, out.permReason, s.reproDir())
	}
	if out.tripClass {
		s.brk.tripClass(q.class)
	}
	f.status, f.body, f.retryAfter, f.cacheable = out.status, out.body, out.retryAfter, out.cacheable
}

// retryAfterSec derives the back-pressure hint from live telemetry:
// the median run time scaled by the queue ahead of a new arrival,
// floored at 1s and capped at an hour — always finite.
func (s *Server) retryAfterSec() int {
	med := s.health.MedianRunSeconds()
	if med <= 0 {
		med = 1
	}
	return min(max(int(math.Ceil(med*float64(s.adm.queued()+1)/float64(s.adm.slotCount()))), 1), 3600)
}

func (s *Server) reproDir() string { return filepath.Join(s.cfg.DataDir, "repro") }

// pointLedger opens (or reuses) the shared point ledger for an option
// class. The axes are stripped from the class identity: point keys are
// self-describing (scheme, bad period, packet size), so any sweep or
// advise request whose result-affecting options match lands in the
// same file and warm-starts from every point anyone already computed.
// The budget names no class either (Fingerprint leaves it out): Settle
// settles each request's points under its own, and the opener's is
// only what the ledger's Has answers for.
func (s *Server) pointLedger(opt experiment.Options) (*experiment.Ledger, error) {
	lopt := experiment.Options{
		Replications: opt.Replications,
		BaseSeed:     opt.BaseSeed,
		Transfer:     opt.Transfer,
		Retries:      opt.Retries,
		Checks:       opt.Checks,
		Oracle:       opt.Oracle,
		RunBudget:    opt.RunBudget,
	}
	name := fingerprintOf(struct {
		Kind    string `json:"kind"`
		Options string `json:"options"`
	}{"points/v1", experiment.Fingerprint(lopt)})[:16]
	path := filepath.Join(s.cfg.DataDir, "points-"+name+".ckpt")
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.ledgers[path]; ok {
		return l, nil
	}
	l, err := experiment.OpenLedger(path, lopt)
	if err != nil {
		return nil, err
	}
	s.ledgers[path] = l
	return l, nil
}

// Resume re-executes every journaled request from a previous server
// life in the background (bypassing the queue bound — they were
// already accepted once). Sweeps warm-start from their point ledgers,
// so only unfinished points actually run. Returns how many requests
// were picked up.
func (s *Server) Resume() int {
	n := 0
	for _, p := range s.jour.list() {
		q, err := s.queryFromPending(p)
		if err != nil {
			// Journal predates a schema change; nothing can re-execute it.
			fmt.Fprintf(os.Stderr, "wtcpd: resume %s: %v\n", p.Fingerprint, err)
			s.jour.remove(p.Fingerprint)
			continue
		}
		// The request answers, and retires its entry, under the address
		// it was accepted under — the one its client polls — even where
		// this build would address its body differently.
		q.fp = p.Fingerprint
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			break
		}
		if _, ok := s.flights[q.fp]; ok {
			s.mu.Unlock()
			continue
		}
		s.startFlightLocked(q, true)
		n++
	}
	return n
}

// queryFromPending rebuilds an executable query from a journal entry,
// a POST through the parse that admitted it (postQuery).
func (s *Server) queryFromPending(p pendingRequest) (query, error) {
	if p.Kind != "advise" {
		return s.postQuery(p.Kind, p.Body)
	}
	var body adviseBody
	if err := decodeStrict(p.Body, &body); err != nil {
		return query{}, err
	}
	bad, err := scenario.ParsePositiveDur("bad", body.Bad)
	if err != nil || bad <= 0 {
		return query{}, fmt.Errorf("serve: journaled advise query has no valid bad period")
	}
	return s.adviseQuery(bad), nil
}

// postQuery parses and validates a POST body of kind "run" or "sweep"
// into its query: what handlePost admits and Resume rebuilds.
func (s *Server) postQuery(kind string, body []byte) (query, error) {
	switch kind {
	case "run":
		req, c, cfg, err := parseRunRequest(body)
		if err != nil {
			return query{}, err
		}
		return s.runQuery(req, c, cfg, body), nil
	case "sweep":
		req, c, err := ParseSweepRequest(body)
		if err != nil {
			return query{}, err
		}
		return s.sweepQuery(req, c, body), nil
	default:
		return query{}, fmt.Errorf("serve: unknown journaled request kind %q", kind)
	}
}

// Drain gracefully winds the server down: admission stops (new
// requests answer 503), in-flight work gets until ctx expires to
// finish on its own, then everything still running is canceled —
// which, for engine work, means stopping at the next replication
// boundary with every finished sweep point already checkpointed and
// the request's journal entry retained for the next server life.
// Blocks until all flights settle.
func (s *Server) Drain(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelRuns()
		<-done
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close releases the ledger locks, the journal and cache files and the
// data-directory lock. Call after Drain; calling it again is a no-op.
func (s *Server) Close() {
	s.cancelRuns()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.ledgers {
		l.Close()
	}
	s.ledgers = map[string]*experiment.Ledger{}
	if s.closed {
		return
	}
	s.closed = true
	s.jour.close()
	s.cache.close()
	s.unlock()
}

// ---- HTTP plumbing ----

// handlePost answers a POST of kind (postQuery): a body that does not
// read or parse is a 400, anything else takes the serveQuery pipeline.
func (s *Server) handlePost(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.met.requests.Add(1)
		body, err := readBody(r)
		var q query
		if err == nil {
			q, err = s.postQuery(kind, body)
		}
		if err != nil {
			s.met.badRequests.Add(1)
			writeError(w, http.StatusBadRequest, 0, errorBody{Error: err.Error()})
			return
		}
		s.serveQuery(w, r, q)
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !validFingerprint(fp) {
		writeError(w, http.StatusBadRequest, 0, errorBody{Error: "fingerprint must be a sha256 hex digest"})
		return
	}
	if data, ok := s.cache.get(fp); ok {
		s.met.cacheHits.Add(1)
		writeCached(w, data, "hit")
		return
	}
	s.mu.Lock()
	_, inFlight := s.flights[fp]
	s.mu.Unlock()
	if inFlight || s.jour.has(fp) {
		sec := s.retryAfterSec()
		writeError(w, http.StatusAccepted, sec, errorBody{
			Error:         "result is still being computed",
			Fingerprint:   fp,
			RetryAfterSec: sec,
		})
		return
	}
	writeError(w, http.StatusNotFound, 0, errorBody{
		Error:       "unknown fingerprint: never computed, or evicted from the result cache",
		Fingerprint: fp,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	data, err := s.health.SnapshotJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, 0, errorBody{Error: err.Error()})
		return
	}
	status := http.StatusOK
	if s.Draining() {
		w.Header().Set("X-Wtcpd-Draining", "true")
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, s.met.render(s))
}

func readBody(r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		return nil, fmt.Errorf("serve: read request: %w", err)
	}
	if len(data) > maxRequestBody {
		return nil, fmt.Errorf("serve: request body exceeds %d bytes", maxRequestBody)
	}
	return data, nil
}

func writeCached(w http.ResponseWriter, data []byte, state string) {
	w.Header().Set("X-Wtcpd-Cache", state)
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func writeError(w http.ResponseWriter, status, retryAfter int, e errorBody) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(marshalError(e))
}
