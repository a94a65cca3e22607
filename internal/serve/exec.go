package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"wtcp/internal/core"
	"wtcp/internal/experiment"
	"wtcp/internal/fleet"
	"wtcp/internal/scenario"
)

// Execution: turning parsed requests into engine work and engine
// outcomes into HTTP answers plus their policy consequences (cache,
// journal, breakers).

// RepResult is one replication's record in a response: the seed it ran
// under and the extracted measurements, with any retry backoff
// schedule it consumed (non-empty only when transient failures forced
// retries).
type RepResult struct {
	Seed      int64     `json:"seed"`
	Values    []float64 `json:"values"`
	BackoffMs []int64   `json:"backoff_ms,omitempty"`
}

// RunResponse is the POST /v1/run success body.
type RunResponse struct {
	Fingerprint string `json:"fingerprint"`
	// Metrics names the Values columns, in order.
	Metrics      []string    `json:"metrics"`
	Replications []RepResult `json:"replications"`
}

// runMetrics names the columns runExtract produces.
var runMetrics = []string{"throughput_kbps", "goodput", "retransmitted_kb", "timeouts"}

// QuarantineInfo describes a point whose circuit breaker tripped.
type QuarantineInfo struct {
	Class    string `json:"class"`
	Attempts int    `json:"attempts"`
	Reason   string `json:"reason"`
}

// PointResult is one sweep point in a response: exactly one of
// Replications or Quarantine is set.
type PointResult struct {
	Key          string          `json:"key"`
	Replications []RepResult     `json:"replications,omitempty"`
	Quarantine   *QuarantineInfo `json:"quarantine,omitempty"`
}

// SweepResponse is the POST /v1/sweep success body, points in the
// campaign's canonical sweep order.
type SweepResponse struct {
	Fingerprint string        `json:"fingerprint"`
	Points      []PointResult `json:"points"`
}

// errorBody is the JSON shape of every non-2xx answer.
type errorBody struct {
	Error         string `json:"error"`
	Class         string `json:"class,omitempty"`
	Fingerprint   string `json:"fingerprint,omitempty"`
	ReproDir      string `json:"repro_dir,omitempty"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
}

func marshalError(e errorBody) []byte {
	data, err := json.Marshal(e)
	if err != nil {
		return []byte(`{"error":"internal error"}`)
	}
	return data
}

// marshalResponse encodes a success body. These structs are
// marshalable by construction; an encode failure is an internal bug.
func marshalResponse(v any) ([]byte, outcome, bool) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, outcome{
			status: http.StatusInternalServerError,
			body:   marshalError(errorBody{Error: fmt.Sprintf("encode response: %v", err)}),
			failed: true,
		}, false
	}
	return data, outcome{}, true
}

// runQuery binds a validated run request into the serveQuery pipeline.
func (s *Server) runQuery(req RunRequest, sf scenario.File, body []byte) query {
	fp := RunFingerprint(sf, req.Replications)
	return query{
		kind:        "run",
		fp:          fp,
		class:       runClass(sf),
		journalBody: body,
		deadline:    time.Duration(req.DeadlineMS) * time.Millisecond,
		exec: func(ctx context.Context) outcome {
			return s.execRun(ctx, req, sf, fp)
		},
	}
}

// runClass is the breaker cooldown granularity for runs: the scenario's
// shape (preset and scheme), not its exact parameters — a WAN/ebsn
// scenario that exhausts its budget predicts the same fate for its
// near-identical neighbours.
func runClass(sf scenario.File) string {
	preset, scheme := sf.Preset, sf.Scheme
	if preset == "" {
		preset = "wan"
	}
	if scheme == "" {
		scheme = "basic"
	}
	return "run/" + preset + "/" + scheme
}

// sweepQuery binds a validated sweep request into the pipeline.
func (s *Server) sweepQuery(req SweepRequest, c fleet.Campaign, body []byte) query {
	fp := SweepFingerprint(c)
	return query{
		kind:        "sweep",
		fp:          fp,
		class:       "sweep/" + strings.Join(c.Sweeps, "+"),
		journalBody: body,
		deadline:    time.Duration(req.DeadlineMS) * time.Millisecond,
		exec: func(ctx context.Context) outcome {
			return s.execSweep(ctx, c, fp)
		},
	}
}

// engineOptions layers the server's execution policy over a request's
// result-affecting options: health telemetry, repro capture, worker
// width and retry budget defaults, and the request deadline folded
// into the per-run wall-clock ceiling (so a hung replication dies at
// the simulator's own budget check, not only at the context).
func (s *Server) engineOptions(ctx context.Context, opt experiment.Options) experiment.Options {
	opt.Health = s.health
	opt.ReproDir = s.reproDir()
	if opt.Workers == 0 {
		opt.Workers = s.cfg.Workers
	}
	if opt.Retries == 0 {
		opt.Retries = s.cfg.Retries
	}
	opt.RunBudget = opt.RunBudget.Or(deadlineBudget(ctx))
	return opt
}

// execRun runs one scenario for Replications consecutive seeds.
func (s *Server) execRun(ctx context.Context, req RunRequest, sf scenario.File, fp string) outcome {
	opt := s.engineOptions(ctx, experiment.Options{
		Replications: req.Replications,
		Supervise:    experiment.NewSupervisor(),
	})
	build := func(seed int64) core.Config {
		cfg, err := sf.Build()
		if err != nil {
			// ParseRunRequest already built this file once; a failure here
			// is impossible by construction.
			panic(fmt.Sprintf("serve: rebuild validated scenario: %v", err))
		}
		// The engine hands the 1-based replication index as the seed;
		// offset from the scenario's own seed so replication 1 is exactly
		// the scenario as written.
		cfg.Seed += seed - 1
		return cfg
	}
	measure := func(r *core.Result) ([]float64, error) {
		return []float64{
			r.Summary.ThroughputKbps,
			r.Summary.Goodput,
			r.Summary.RetransmittedKB(),
			float64(r.Summary.Timeouts),
		}, nil
	}
	reps, quar, err := experiment.RunCustom(ctx, opt, "run-"+fp[:16], build, measure)
	if err != nil {
		return s.failureOutcome(ctx, fp, err)
	}
	if quar != nil {
		return s.quarantineOutcome(ctx, fp, *quar)
	}
	body, bad, ok := marshalResponse(RunResponse{
		Fingerprint:  fp,
		Metrics:      runMetrics,
		Replications: repResults(reps),
	})
	if !ok {
		return bad
	}
	return outcome{status: http.StatusOK, body: body, cacheable: true}
}

// execSweep settles a campaign through the shared point ledger
// (experiment.Ledger.Settle, via settleSpecs): already-settled points
// load instead of re-running (warm start across overlapping sweeps,
// /v1/advise, and drain/resume), and each fresh point is recorded the
// moment it settles, so a drain can never lose more than the points in
// flight (at most Slots).
func (s *Server) execSweep(ctx context.Context, c fleet.Campaign, fp string) outcome {
	opt, err := c.Options()
	if err != nil {
		// ParseSweepRequest validated the campaign; unreachable.
		return s.failureOutcome(ctx, fp, err)
	}
	opt = s.engineOptions(ctx, opt)
	width := s.adm.slotCount()
	if c.Supervise {
		// The breaker's record follows sweep order (DESIGN.md "Point
		// lifecycle"): a supervised campaign settles one point at a time.
		opt.Supervise = experiment.NewSupervisor()
		width = 1
	}
	specs, err := c.Specs()
	if err != nil {
		return s.failureOutcome(ctx, fp, err)
	}
	led, err := s.pointLedger(opt)
	if err != nil {
		return outcome{
			status: http.StatusInternalServerError,
			body:   marshalError(errorBody{Error: err.Error(), Fingerprint: fp}),
			failed: true,
		}
	}
	outs, err := s.settleSpecs(ctx, led, opt, specs, width)
	if err != nil {
		// A deadline or drain mid-campaign: every point settled before
		// the error is already in the ledger; only the rest re-run next
		// life.
		return s.failureOutcome(ctx, fp, err)
	}
	points := make([]PointResult, len(outs))
	for i, out := range outs {
		points[i] = pointResult(out)
	}
	body, bad, ok := marshalResponse(SweepResponse{Fingerprint: fp, Points: points})
	if !ok {
		return bad
	}
	return outcome{status: http.StatusOK, body: body, cacheable: true}
}

// settleSpecs settles specs through led, at most width at a time (see
// onFreeSlots), and returns their outcomes in spec order. Records land
// in the ledger in completion order; everything that reads them is
// keyed by point.
func (s *Server) settleSpecs(ctx context.Context, led *experiment.Ledger, opt experiment.Options, specs []experiment.PointSpec, width int) ([]experiment.PointOutcome, error) {
	outs := make([]experiment.PointOutcome, len(specs))
	err := s.onFreeSlots(ctx, len(specs), width, func(ctx context.Context, i int) (err error) {
		outs[i], err = led.Settle(ctx, opt, specs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// onFreeSlots runs job(0..n-1), at most width at a time. The request's
// own run slot carries one job; every further job runs on a slot
// borrowed with admission.tryAcquire, which goes back the moment that
// job returns — so a request waiting in the admission queue gets it
// before this one can borrow it again. Jobs start in index order, and
// the first error in index order is the answer: once a job fails, the
// jobs after it are canceled and the ones before it run to the end, so
// the error is the one a one-at-a-time loop would return.
func (s *Server) onFreeSlots(ctx context.Context, n, width int, job func(ctx context.Context, i int) error) error {
	errs := make([]error, n)
	cancels := make([]context.CancelFunc, n)
	done := make(chan int, width) // room for every job in flight: a finished job never waits
	// own is the index of the job on the request's own slot, -1 when
	// that slot is free; failed is the lowest failing index so far.
	own, next, running, failed := -1, 0, 0, n
	for {
		for next < failed && running < width {
			release := func() {}
			if own < 0 {
				own = next
			} else if r, ok := s.adm.tryAcquire(); ok {
				release = r
			} else {
				break
			}
			jctx, cancel := context.WithCancel(ctx)
			cancels[next] = cancel
			go func(i int) {
				errs[i] = job(jctx, i)
				release()
				done <- i
			}(next)
			next++
			running++
		}
		if running == 0 {
			break
		}
		i := <-done
		running--
		cancels[i]()
		if i == own {
			own = -1
		}
		if errs[i] != nil && i < failed {
			failed = i
			for j := i + 1; j < next; j++ {
				cancels[j]()
			}
		}
	}
	if failed < n {
		return errs[failed]
	}
	return nil
}

// pointResult renders a settled point in response form.
func pointResult(out experiment.PointOutcome) PointResult {
	if q := out.Quarantine; q != nil {
		return PointResult{Key: out.Key, Quarantine: &QuarantineInfo{
			Class: q.Class, Attempts: q.Attempts, Reason: q.Reason,
		}}
	}
	return PointResult{Key: out.Key, Replications: repResults(out.Reps)}
}

// repResults decodes engine records into response form.
func repResults(reps []experiment.RepRecord) []RepResult {
	out := make([]RepResult, len(reps))
	for i, r := range reps {
		values := make([]float64, len(r.Values))
		for k, bits := range r.Values {
			values[k] = math.Float64frombits(bits)
		}
		out[i] = RepResult{Seed: r.Seed, Values: values, BackoffMs: r.Backoffs}
	}
	return out
}

// failureOutcome maps an execution error onto HTTP and policy via the
// failure taxonomy. The context state is consulted before the class:
// the deadline-derived wall-clock budget and the context expire
// together, so the same client deadline can surface as canceled or as
// resource-exhausted depending on which check fired first — and a
// class cooldown must never trip (nor a 504 turn into a 503) because
// of that race.
func (s *Server) failureOutcome(ctx context.Context, fp string, err error) outcome {
	class := core.Classify(err)
	interrupted := class == core.ClassCanceled || class == core.ClassResourceExhausted
	switch {
	case class == core.ClassProtocolBug || class == core.ClassPanic:
		// Deterministic failure: same request, same bug, every time.
		// Permanently fail the fingerprint and point at the repro bundle.
		return outcome{
			status: http.StatusUnprocessableEntity,
			body: marshalError(errorBody{
				Error:       err.Error(),
				Class:       string(class),
				Fingerprint: fp,
				ReproDir:    s.reproDir(),
			}),
			failed:     true,
			permClass:  class,
			permReason: err.Error(),
		}
	case interrupted && s.runCtx.Err() != nil:
		return s.drainedOutcome(fp)
	case interrupted && ctx.Err() != nil:
		return s.deadlineOutcome(fp, err)
	case class == core.ClassResourceExhausted:
		// The request's own budget (scenario or campaign block) exhausted
		// within the deadline: fail the request and cool the whole
		// scenario class down at admission.
		return outcome{
			status: http.StatusUnprocessableEntity,
			body: marshalError(errorBody{
				Error:       err.Error(),
				Class:       string(class),
				Fingerprint: fp,
			}),
			failed:    true,
			tripClass: true,
		}
	default:
		return outcome{
			status: http.StatusInternalServerError,
			body: marshalError(errorBody{
				Error:       err.Error(),
				Class:       string(class),
				Fingerprint: fp,
			}),
			failed: true,
		}
	}
}

// drainedOutcome answers work interrupted by a graceful drain: it is
// journaled and will resume in the next server life; the client polls
// /v1/result for the answer.
func (s *Server) drainedOutcome(fp string) outcome {
	sec := s.retryAfterSec()
	return outcome{
		status: http.StatusServiceUnavailable,
		body: marshalError(errorBody{
			Error:         "server drained mid-execution; the request is journaled and resumes on restart — poll /v1/result/" + fp,
			Class:         string(core.ClassCanceled),
			Fingerprint:   fp,
			RetryAfterSec: sec,
		}),
		retryAfter:  sec,
		keepJournal: true,
	}
}

// deadlineOutcome answers work killed by the request's own deadline.
func (s *Server) deadlineOutcome(fp string, err error) outcome {
	return outcome{
		status: http.StatusGatewayTimeout,
		body: marshalError(errorBody{
			Error:       fmt.Sprintf("request deadline expired: %v", err),
			Class:       string(core.ClassCanceled),
			Fingerprint: fp,
		}),
		failed:          true,
		deadlineExpired: true,
	}
}

// quarantineOutcome maps a supervised breaker trip onto HTTP: the
// request fails with the quarantine record, and resource exhaustion
// additionally cools its scenario class down. The same context guards
// as failureOutcome apply — a quarantine whose budget exhaustion was
// induced by the request deadline (or a drain) is the deadline's
// outcome, not the scenario's.
func (s *Server) quarantineOutcome(ctx context.Context, fp string, quar experiment.Quarantine) outcome {
	exhausted := quar.Class == string(core.ClassResourceExhausted)
	if exhausted && s.runCtx.Err() != nil {
		return s.drainedOutcome(fp)
	}
	if exhausted && ctx.Err() != nil {
		return s.deadlineOutcome(fp, fmt.Errorf("%s", quar.Reason))
	}
	return outcome{
		status: http.StatusUnprocessableEntity,
		body: marshalError(errorBody{
			Error:       fmt.Sprintf("quarantined after %d attempts: %s", quar.Attempts, quar.Reason),
			Class:       quar.Class,
			Fingerprint: fp,
		}),
		failed:    true,
		tripClass: exhausted,
	}
}
