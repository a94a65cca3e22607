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
	"wtcp/internal/scenario"
)

// Execution: turning parsed requests into engine work and engine
// outcomes into HTTP answers plus their policy consequences (cache,
// journal, breakers).

// RepResult is one replication's record in a response: the seed it ran
// under and the extracted measurements.
type RepResult struct {
	Seed   int64     `json:"seed"`
	Values []float64 `json:"values"`
}

// RunResponse is the POST /v1/run success body.
type RunResponse struct {
	Fingerprint string `json:"fingerprint"`
	// Metrics names the Values columns, in order.
	Metrics      []string    `json:"metrics"`
	Replications []RepResult `json:"replications"`
}

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

// runQuery binds a validated run request — its canonical scenario c and
// the configuration cfg it builds — into the serveQuery pipeline. Its
// breaker class is the scenario's shape (preset and scheme), not its
// exact parameters: a WAN/ebsn scenario that exhausts its budget
// predicts the same fate for its near-identical neighbours.
func (s *Server) runQuery(req RunRequest, c scenario.File, cfg core.Config, body []byte) query {
	return query{
		kind:        "run",
		fp:          runFingerprint(c, req.Replications),
		class:       "run/" + c.Preset + "/" + c.Scheme,
		journalBody: body,
		deadline:    time.Duration(req.DeadlineMS) * time.Millisecond,
		budget:      cfg.Budget,
		exec: func(ctx context.Context, fp string) outcome {
			return s.execRun(ctx, req.Replications, cfg, fp)
		},
	}
}

// sweepQuery binds a validated sweep request into the pipeline.
func (s *Server) sweepQuery(req SweepRequest, c experiment.Campaign, body []byte) query {
	opt, _ := c.Options() // ParseSweepRequest validated the campaign
	return query{
		kind:        "sweep",
		fp:          SweepFingerprint(c),
		class:       "sweep/" + strings.Join(c.Sweeps, "+"),
		journalBody: body,
		deadline:    time.Duration(req.DeadlineMS) * time.Millisecond,
		budget:      opt.RunBudget,
		exec: func(ctx context.Context, fp string) outcome {
			return s.execSweep(ctx, c, fp)
		},
	}
}

// engineOptions layers the server's execution policy over a request's
// result-affecting options: health telemetry and repro capture. The
// request deadline is the run context's.
func (s *Server) engineOptions(opt experiment.Options) experiment.Options {
	opt.Health = s.health
	opt.ReproDir = s.reproDir()
	return opt
}

// execRun runs one scenario for its replications (experiment.RunScenario).
func (s *Server) execRun(ctx context.Context, replications int, cfg core.Config, fp string) outcome {
	opt := s.engineOptions(experiment.Options{Replications: replications})
	reps, quar, err := experiment.RunScenario(ctx, opt, "run-"+fp[:16], cfg, nil)
	if err != nil {
		return s.failureOutcome(ctx, fp, err)
	}
	if quar != nil {
		return s.quarantineOutcome(fp, *quar)
	}
	body, bad, ok := marshalResponse(RunResponse{
		Fingerprint:  fp,
		Metrics:      experiment.ScenarioMetrics,
		Replications: repResults(reps),
	})
	if !ok {
		return bad
	}
	return outcome{status: http.StatusOK, body: body, cacheable: true}
}

// execSweep settles a campaign's points (settlePoints) and answers them
// in the campaign's canonical order.
func (s *Server) execSweep(ctx context.Context, c experiment.Campaign, fp string) outcome {
	opt, err := c.Options()
	if err != nil {
		// ParseSweepRequest validated the campaign; unreachable.
		return s.failureOutcome(ctx, fp, err)
	}
	specs, err := c.Specs()
	if err != nil {
		return s.failureOutcome(ctx, fp, err)
	}
	outs, failed, ok := s.settlePoints(ctx, opt, specs, fp)
	if !ok {
		return failed
	}
	points := make([]PointResult, len(outs))
	for i, out := range outs {
		points[i] = pointResult(out)
	}
	body, bad, ok := marshalResponse(SweepResponse{Fingerprint: fp, Points: points})
	if !ok {
		return bad
	}
	return outcome{status: http.StatusOK, body: body, cacheable: cacheable(outs)}
}

// settlePoints settles specs through the shared point ledger of opt's
// class on the request's own run slot plus every slot
// admission.tryAcquire lends, one (point, seed) unit per borrowed slot,
// handed back as its unit lands so a queued request gets it first. The
// slots are the width; a campaign's workers field is not. Settled
// points load instead of re-running (warm starts, drain/resume), and a
// fresh point is recorded as it settles, so a deadline or drain loses
// at most the points in flight. On failure it returns the answer.
func (s *Server) settlePoints(ctx context.Context, opt experiment.Options, specs []experiment.PointSpec, fp string) ([]experiment.PointOutcome, outcome, bool) {
	opt = s.engineOptions(opt)
	led, err := s.pointLedger(opt)
	if err != nil {
		return nil, outcome{
			status: http.StatusInternalServerError,
			body:   marshalError(errorBody{Error: err.Error(), Fingerprint: fp}),
			failed: true,
		}, false
	}
	outs, err := led.Settle(ctx, opt, specs, s.adm.tryAcquire)
	if err != nil {
		return nil, s.failureOutcome(ctx, fp, err), false
	}
	return outs, outcome{}, true
}

// cacheable reports whether an answer built from outs may be cached
// under its budget-free address: not when it carries a budget-bound
// quarantine (experiment.Quarantine.BudgetBound).
func cacheable(outs []experiment.PointOutcome) bool {
	for _, out := range outs {
		if q := out.Quarantine; q != nil && q.BudgetBound() {
			return false
		}
	}
	return true
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
		out[i] = RepResult{Seed: r.Seed, Values: values}
	}
	return out
}

// failureOutcome maps an execution error onto HTTP and policy via the
// failure taxonomy: a deterministic failure fails its fingerprint for
// good, work the drain or the request deadline canceled is theirs, and
// anything else is a 500. (A budget the request exhausted is a
// quarantine: quarantineOutcome.)
func (s *Server) failureOutcome(ctx context.Context, fp string, err error) outcome {
	class := core.Classify(err)
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
	case class == core.ClassCanceled && s.runCtx.Err() != nil:
		return s.drainedOutcome(fp)
	case class == core.ClassCanceled && ctx.Err() != nil:
		return s.deadlineOutcome(fp, err)
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

// quarantineOutcome maps a run's breaker trip onto HTTP: the
// request fails with the quarantine record, and resource exhaustion
// additionally cools its scenario class down. A quarantine is only
// ever a verdict reached with the request context alive (a deadline or
// drain that starved a point is the context's error instead), so it is
// the scenario's outcome.
func (s *Server) quarantineOutcome(fp string, quar experiment.Quarantine) outcome {
	return outcome{
		status: http.StatusUnprocessableEntity,
		body: marshalError(errorBody{
			Error:       fmt.Sprintf("quarantined after %d attempts: %s", quar.Attempts, quar.Reason),
			Class:       quar.Class,
			Fingerprint: fp,
		}),
		failed:    true,
		tripClass: quar.Class == string(core.ClassResourceExhausted),
	}
}
