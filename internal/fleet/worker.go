package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"wtcp/internal/experiment"
)

// Worker-side RPC retry policy: capped exponential backoff with
// deterministic jitter (derived from worker name + attempt, so two
// workers hammered by the same chaos plan don't retry in lockstep).
const (
	rpcBackoffBase = 100 * time.Millisecond
	rpcBackoffCap  = 5 * time.Second
	rpcMaxAttempts = 8
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Name identifies the worker to the coordinator (lease attribution,
	// fleet snapshot).
	Name string
	// Coordinator is the coordinator's base URL ("http://127.0.0.1:7070").
	Coordinator string
	// Health, when set, collects the worker's engine telemetry;
	// RunWorker threads it into the engine via Options.Health.
	Health *experiment.Health
	// HTTPClient overrides the transport (a caller can wrap the RPCs in
	// its own RoundTripper); nil uses a plain client.
	HTTPClient *http.Client
}

// RunWorker joins the fleet at cfg.Coordinator and processes work units
// until the coordinator reports the campaign done or ctx is canceled.
// Each unit runs through experiment.RunPointSpec — the engine's one
// scheduler, same seeds, same retry schedule — while a background
// goroutine renews the lease. If a renewal comes back rejected (the
// lease expired or the point settled first), the unit's context is
// canceled and the worker abandons it without posting: its work either
// already counted or will be redone deterministically by the new
// holder.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Name == "" {
		return fmt.Errorf("fleet: worker needs a name")
	}
	if cfg.Coordinator == "" {
		return fmt.Errorf("fleet: worker needs the coordinator URL")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}

	campaign, err := fetchCampaign(ctx, cfg)
	if err != nil {
		return err
	}
	opt, err := campaign.Options()
	if err != nil {
		return err
	}
	opt.Health = cfg.Health

	lease := func() (leaseReply, error) {
		var rep leaseReply
		err := callJSON(ctx, cfg, "/v1/lease", leaseRequest{Worker: cfg.Name}, &rep)
		if err == nil {
			err = rep.check()
		}
		if err != nil {
			return rep, fmt.Errorf("fleet: worker %s: lease: %w", cfg.Name, err)
		}
		return rep, nil
	}
	// A busy worker leases once: each result post carries the next grant,
	// so /v1/lease is called again only after a wait, or when a result
	// reply carries no grant (the unit was abandoned, or the coordinator
	// predates grants on result posts).
	rep, err := lease()
	for err == nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		switch {
		case rep.Done:
			return nil
		case rep.Unit == nil:
			wait := time.Duration(rep.WaitMs) * time.Millisecond
			if wait <= 0 {
				wait = idleWaitMs * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
			rep, err = lease()
		default:
			next, runErr := runUnit(ctx, cfg, opt, rep.Unit)
			if runErr != nil {
				return runErr
			}
			if next != nil {
				rep = *next
			} else {
				rep, err = lease()
			}
		}
	}
	return err
}

// runUnit executes one leased point and posts its outcome, asking for
// the next grant, which it returns (nil when the unit was abandoned or
// the reply carries none).
func runUnit(ctx context.Context, cfg WorkerConfig, opt experiment.Options, u *workUnit) (*leaseReply, error) {
	unitCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Renew at a third of the TTL; two renewals can be lost (dropped by
	// chaos, say) before the lease lapses.
	ttl := time.Duration(u.TTLMs) * time.Millisecond
	renewDone := make(chan struct{})
	var abandoned atomic.Bool
	go func() {
		defer close(renewDone)
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-unitCtx.Done():
				return
			case <-t.C:
				var rep renewReply
				err := callJSON(unitCtx, cfg, "/v1/renew", renewRequest{Worker: cfg.Name, Lease: u.Lease}, &rep)
				if err == nil && !rep.OK {
					// Lease gone: abandon the unit. cancel() below makes
					// the engine return ctx.Canceled and runUnit skips the
					// post.
					abandoned.Store(true)
					cancel()
					return
				}
				// Transport errors are tolerated: renewals are fire and
				// forget, the next tick retries, and the worst case is the
				// lease lapsing — which the protocol already survives.
			}
		}
	}()

	outcome, runErr := experiment.RunPointSpec(unitCtx, opt, u.Spec)
	cancel()
	<-renewDone

	if runErr != nil {
		if ctx.Err() != nil {
			// The worker itself is shutting down.
			return nil, ctx.Err()
		}
		if abandoned.Load() {
			// Only the unit was canceled (abandoned lease): not a campaign
			// failure, just go lease something else.
			return nil, nil
		}
		// Fail-fast failure (protocol bug, panic, unclassified): report it
		// so the coordinator stops the campaign, mirroring the sequential
		// engine's behaviour.
		req := resultRequest{
			Worker:  cfg.Name,
			Lease:   u.Lease,
			Outcome: experiment.PointOutcome{Key: u.Key},
			Failure: runErr.Error(),
		}
		var rep resultReply
		if err := callJSON(ctx, cfg, "/v1/result", req, &rep); err != nil {
			return nil, fmt.Errorf("fleet: worker %s: report failure of %s: %w (original failure: %v)", cfg.Name, u.Key, err, runErr)
		}
		return nil, fmt.Errorf("fleet: worker %s: %w", cfg.Name, runErr)
	}

	req := resultRequest{Worker: cfg.Name, Lease: u.Lease, Outcome: outcome, Next: true}
	var rep resultReply
	if err := callJSON(ctx, cfg, "/v1/result", req, &rep); err != nil {
		return nil, fmt.Errorf("fleet: worker %s: post result of %s: %w", cfg.Name, u.Key, err)
	}
	if rep.Next != nil {
		if err := rep.Next.check(); err != nil {
			return nil, fmt.Errorf("fleet: worker %s: result of %s: %w", cfg.Name, u.Key, err)
		}
	}
	return rep.Next, nil
}

// fetchCampaign retrieves the manifest from the coordinator, retrying
// through startup races (a remote worker up before the listener).
func fetchCampaign(ctx context.Context, cfg WorkerConfig) (Campaign, error) {
	var lastErr error
	for attempt := 0; attempt < rpcMaxAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, rpcBackoff(cfg.Name, attempt)); err != nil {
				return Campaign{}, err
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.Coordinator+"/v1/campaign", nil)
		if err != nil {
			return Campaign{}, err
		}
		resp, err := cfg.HTTPClient.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
			continue
		}
		var c Campaign
		if err := json.Unmarshal(body, &c); err != nil {
			return Campaign{}, fmt.Errorf("fleet: decode campaign: %w", err)
		}
		return c, nil
	}
	return Campaign{}, fmt.Errorf("fleet: worker %s: fetch campaign: %w", cfg.Name, lastErr)
}

// callJSON POSTs a JSON request and decodes the JSON reply, retrying
// transient transport and 5xx errors under capped exponential backoff
// with deterministic jitter. 4xx errors are permanent (the request is
// wrong, retrying cannot help).
func callJSON(ctx context.Context, cfg WorkerConfig, path string, reqBody, replyOut any) error {
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt < rpcMaxAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, rpcBackoff(cfg.Name+path, attempt)); err != nil {
				return err
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.Coordinator+path, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := cfg.HTTPClient.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			return json.Unmarshal(body, replyOut)
		case resp.StatusCode >= 500:
			lastErr = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
			continue
		default:
			return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
		}
	}
	return lastErr
}

// rpcBackoff is the capped exponential backoff with deterministic
// jitter for attempt N (N >= 1) of an RPC identified by salt.
func rpcBackoff(salt string, attempt int) time.Duration {
	d := rpcBackoffBase << (attempt - 1)
	if d <= 0 || d > rpcBackoffCap {
		d = rpcBackoffCap
	}
	h := fnv.New64a()
	h.Write([]byte(salt))
	x := experiment.Splitmix64(h.Sum64() ^ uint64(attempt)<<40)
	return d + time.Duration(x%uint64(d/2+1))
}

// sleepCtx waits d or until ctx ends, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
