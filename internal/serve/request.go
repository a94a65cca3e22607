package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"wtcp/internal/core"
	"wtcp/internal/experiment"
	"wtcp/internal/scenario"
)

// Request envelopes and their content addresses. A request's
// fingerprint is the sha256 of its canonical identity — the fields
// that affect what the engine would measure, normalized through the
// typed request structs so formatting, key order, and documentation
// noise never split the cache. Seeds are part of the identity (a
// different seed is a different experiment); deadlines and budgets are
// not (they bound how long we are willing to compute the answer, never
// what a within-budget run measures — the same exclusion the
// checkpoint fingerprint makes).

// maxRequestBody bounds request decoding; a body this size is already
// three orders of magnitude past any legitimate scenario.
const maxRequestBody = 1 << 20

// MaxReplications bounds the per-request replication count — a run's,
// and a sweep campaign's per point — so a single request cannot
// monopolize the server for minutes by inflating the multiplier rather
// than the scenario.
const MaxReplications = 64

// RunRequest is the POST /v1/run body: one scenario, executed under
// full engine policy (retry, classification, repro capture).
type RunRequest struct {
	// Scenario is a wtcp sim scenario document (internal/scenario
	// schema, unknown fields rejected).
	Scenario json.RawMessage `json:"scenario"`
	// Replications runs the scenario under consecutive seeds and
	// returns every record (default 1, max MaxReplications).
	Replications int `json:"replications,omitempty"`
	// DeadlineMS bounds the whole request's execution wall clock. Zero
	// uses the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SweepRequest is the POST /v1/sweep body: a campaign manifest
// executed locally on free run slots, each finished point checkpointed
// as it settles.
type SweepRequest struct {
	// Campaign is a campaign manifest (experiment.Campaign schema).
	Campaign json.RawMessage `json:"campaign"`
	// DeadlineMS bounds the whole request's execution wall clock.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// decodeStrict decodes one JSON value into v, rejecting unknown
// fields and trailing garbage. The campaign/scenario parsers reject
// unknown fields themselves but tolerate trailing bytes; at the HTTP
// boundary a half-corrupted body must never half-succeed.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Anything but a clean EOF after the first value — a second JSON
	// value or raw garbage alike — is trailing data.
	var rest json.RawMessage
	if err := dec.Decode(&rest); err != io.EOF {
		return fmt.Errorf("trailing data after request body")
	}
	return nil
}

// ParseRunRequest decodes and fully validates a /v1/run body. The
// scenario has been through the validation wtcp sim applies to its
// flags and -config (a complete configuration build), so an accepted
// request is known runnable before it costs a slot, and the file
// returned is its canonical spelling (scenario.File.Canonical).
func ParseRunRequest(data []byte) (RunRequest, scenario.File, error) {
	req, c, _, err := parseRunRequest(data)
	return req, c, err
}

// parseRunRequest is ParseRunRequest that also returns the
// configuration the scenario builds, the one its run executes.
func parseRunRequest(data []byte) (RunRequest, scenario.File, core.Config, error) {
	var req RunRequest
	fail := func(format string, args ...any) (RunRequest, scenario.File, core.Config, error) {
		return RunRequest{}, scenario.File{}, core.Config{}, fmt.Errorf("serve: "+format, args...)
	}
	if err := decodeStrict(data, &req); err != nil {
		return fail("parse run request: %w", err)
	}
	if len(bytes.TrimSpace(req.Scenario)) == 0 || string(bytes.TrimSpace(req.Scenario)) == "null" {
		return fail("run request names no scenario")
	}
	if req.Replications < 0 {
		return fail("replications %d is negative", req.Replications)
	}
	if req.Replications > MaxReplications {
		return fail("replications %d exceeds the per-request cap of %d; split the request", req.Replications, MaxReplications)
	}
	if req.Replications == 0 {
		req.Replications = 1
	}
	if req.DeadlineMS < 0 {
		return fail("deadline_ms %d is negative", req.DeadlineMS)
	}
	sf, err := scenario.ParseFile(req.Scenario)
	if err != nil {
		return fail("%w", err)
	}
	cfg, c, err := sf.BuildCanonical()
	if err != nil {
		return fail("%w", err)
	}
	return req, c, cfg, nil
}

// ParseSweepRequest decodes and fully validates a /v1/sweep body.
func ParseSweepRequest(data []byte) (SweepRequest, experiment.Campaign, error) {
	var req SweepRequest
	if err := decodeStrict(data, &req); err != nil {
		return SweepRequest{}, experiment.Campaign{}, fmt.Errorf("serve: parse sweep request: %w", err)
	}
	if len(bytes.TrimSpace(req.Campaign)) == 0 || string(bytes.TrimSpace(req.Campaign)) == "null" {
		return SweepRequest{}, experiment.Campaign{}, fmt.Errorf("serve: sweep request names no campaign")
	}
	if req.DeadlineMS < 0 {
		return SweepRequest{}, experiment.Campaign{}, fmt.Errorf("serve: deadline_ms %d is negative", req.DeadlineMS)
	}
	c, err := experiment.ParseCampaign(req.Campaign)
	if err != nil {
		return SweepRequest{}, experiment.Campaign{}, fmt.Errorf("serve: %w", err)
	}
	if c.Replications > MaxReplications {
		return SweepRequest{}, experiment.Campaign{}, fmt.Errorf("serve: campaign replications %d exceeds the per-request cap of %d; split the request", c.Replications, MaxReplications)
	}
	return req, c, nil
}

// RunFingerprint content-addresses a run request: the scenario in its
// canonical spelling (scenario.File.Canonical: a preset default written
// out or left out, a duration in any spelling and a chaos plan in any
// spelling — or one that injects nothing — name one run) with what no
// response byte depends on cleared — the budget and collect_trace —
// plus the replication count, hashed under a versioned kind tag.
func RunFingerprint(sf scenario.File, replications int) string {
	return runFingerprint(sf.Canonical(), replications)
}

// runFingerprint is RunFingerprint of a file already in its canonical
// spelling.
func runFingerprint(c scenario.File, replications int) string {
	c.Budget = nil
	c.CollectTrace = false
	return fingerprintOf(struct {
		Kind         string        `json:"kind"`
		Scenario     scenario.File `json:"scenario"`
		Replications int           `json:"replications"`
	}{"run/v3", c, replications})
}

// SweepFingerprint content-addresses a sweep request by the grid it
// resolves to: experiment.Fingerprint of the campaign's options — the
// identity its point ledger and the advise endpoint use, so "1s" and
// "1000ms" name one grid — plus the ordered sweep list. The budget
// stays out, as a run's does: an answer it starved is not cached.
func SweepFingerprint(c experiment.Campaign) string {
	opt, err := c.Options()
	if err != nil {
		// ParseSweepRequest validated the campaign.
		panic(fmt.Sprintf("serve: fingerprint of an unvalidated campaign: %v", err))
	}
	return fingerprintOf(struct {
		Kind    string   `json:"kind"`
		Options string   `json:"options"`
		Sweeps  []string `json:"sweeps"`
	}{"sweep/v3", experiment.Fingerprint(opt), c.Sweeps})
}

// fingerprintOf hashes the canonical JSON encoding of an identity
// struct. Go's json.Marshal is deterministic for a fixed struct type,
// which is what makes these stable content addresses.
func fingerprintOf(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Identity structs are marshalable by construction.
		panic(fmt.Sprintf("serve: fingerprint encode: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// validFingerprint gates /v1/result path parameters: exactly a sha256
// hex digest, so a crafted path can never escape the cache directory.
func validFingerprint(fp string) bool {
	if len(fp) != 64 {
		return false
	}
	for _, c := range fp {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
