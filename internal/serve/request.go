package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"wtcp/internal/fleet"
	"wtcp/internal/scenario"
)

// Request envelopes and their content addresses. A request's
// fingerprint is the sha256 of its canonical identity — the fields
// that affect what the engine would measure, normalized through the
// typed request structs so formatting, key order, and documentation
// noise never split the cache. Seeds are part of the identity (a
// different seed is a different experiment); budgets and deadlines are
// not (they bound how long we are willing to compute the answer, never
// what a within-budget run measures — the same exclusion the
// checkpoint fingerprint makes).

// maxRequestBody bounds request decoding; a body this size is already
// three orders of magnitude past any legitimate scenario.
const maxRequestBody = 1 << 20

// MaxReplications bounds the per-request replication count so a single
// request cannot monopolize the server for minutes by inflating the
// multiplier rather than the scenario.
const MaxReplications = 64

// RunRequest is the POST /v1/run body: one scenario, executed under
// full engine policy (retry/backoff, classification, repro capture).
type RunRequest struct {
	// Scenario is a wtcp sim scenario document (internal/scenario
	// schema, unknown fields rejected).
	Scenario json.RawMessage `json:"scenario"`
	// Replications runs the scenario under consecutive seeds and
	// returns every record (default 1, max MaxReplications).
	Replications int `json:"replications,omitempty"`
	// DeadlineMS bounds the whole request's execution wall clock; the
	// deadline propagates into each run's sim.Budget. Zero uses the
	// server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SweepRequest is the POST /v1/sweep body: a fleet campaign manifest
// executed locally, point by point, with every finished point
// checkpointed before the next starts.
type SweepRequest struct {
	// Campaign is a fleet campaign manifest (internal/fleet schema).
	Campaign json.RawMessage `json:"campaign"`
	// DeadlineMS bounds the whole request's execution wall clock.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// decodeStrict decodes one JSON value into v, rejecting unknown
// fields and trailing garbage. The fleet/scenario parsers reject
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
// returned scenario file has been through the same validation wtcp sim
// applies to -config (including a complete configuration build), so an
// accepted request is known runnable before it costs a slot.
func ParseRunRequest(data []byte) (RunRequest, scenario.File, error) {
	var req RunRequest
	if err := decodeStrict(data, &req); err != nil {
		return RunRequest{}, scenario.File{}, fmt.Errorf("serve: parse run request: %w", err)
	}
	if len(bytes.TrimSpace(req.Scenario)) == 0 || string(bytes.TrimSpace(req.Scenario)) == "null" {
		return RunRequest{}, scenario.File{}, fmt.Errorf("serve: run request names no scenario")
	}
	if req.Replications < 0 {
		return RunRequest{}, scenario.File{}, fmt.Errorf("serve: replications %d is negative", req.Replications)
	}
	if req.Replications > MaxReplications {
		return RunRequest{}, scenario.File{}, fmt.Errorf("serve: replications %d exceeds the per-request cap of %d; split the request", req.Replications, MaxReplications)
	}
	if req.Replications == 0 {
		req.Replications = 1
	}
	if req.DeadlineMS < 0 {
		return RunRequest{}, scenario.File{}, fmt.Errorf("serve: deadline_ms %d is negative", req.DeadlineMS)
	}
	sf, err := scenario.ParseFile(req.Scenario)
	if err != nil {
		return RunRequest{}, scenario.File{}, fmt.Errorf("serve: %w", err)
	}
	if _, err := sf.Build(); err != nil {
		return RunRequest{}, scenario.File{}, fmt.Errorf("serve: %w", err)
	}
	return req, sf, nil
}

// ParseSweepRequest decodes and fully validates a /v1/sweep body.
func ParseSweepRequest(data []byte) (SweepRequest, fleet.Campaign, error) {
	var req SweepRequest
	if err := decodeStrict(data, &req); err != nil {
		return SweepRequest{}, fleet.Campaign{}, fmt.Errorf("serve: parse sweep request: %w", err)
	}
	if len(bytes.TrimSpace(req.Campaign)) == 0 || string(bytes.TrimSpace(req.Campaign)) == "null" {
		return SweepRequest{}, fleet.Campaign{}, fmt.Errorf("serve: sweep request names no campaign")
	}
	if req.DeadlineMS < 0 {
		return SweepRequest{}, fleet.Campaign{}, fmt.Errorf("serve: deadline_ms %d is negative", req.DeadlineMS)
	}
	c, err := fleet.ParseCampaign(req.Campaign)
	if err != nil {
		return SweepRequest{}, fleet.Campaign{}, fmt.Errorf("serve: %w", err)
	}
	return req, c, nil
}

// RunFingerprint content-addresses a run request: the normalized
// scenario (budget cleared, chaos plan compacted) plus the replication
// count, hashed under a versioned kind tag.
func RunFingerprint(sf scenario.File, replications int) string {
	sf.Budget = nil
	sf.Chaos = compactJSON(sf.Chaos)
	return fingerprintOf(struct {
		Kind         string        `json:"kind"`
		Scenario     scenario.File `json:"scenario"`
		Replications int           `json:"replications"`
	}{"run/v1", sf, replications})
}

// SweepFingerprint content-addresses a sweep request: the campaign
// with its execution-only knobs (budget, worker width) cleared.
// Supervise stays: it changes the response shape (quarantines versus a
// failed request).
func SweepFingerprint(c fleet.Campaign) string {
	c.Budget = nil
	c.Workers = 0
	return fingerprintOf(struct {
		Kind     string         `json:"kind"`
		Campaign fleet.Campaign `json:"campaign"`
	}{"sweep/v1", c})
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

// compactJSON normalizes an embedded raw message so whitespace in the
// client's chaos block cannot split the cache.
func compactJSON(raw json.RawMessage) json.RawMessage {
	if len(raw) == 0 {
		return nil
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw
	}
	return json.RawMessage(buf.Bytes())
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
