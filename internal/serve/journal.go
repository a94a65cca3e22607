package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wtcp/internal/atomicfile"
)

// The pending journal is the server's accepted-work ledger: a request
// is journaled the moment it wins an admission slot — that is the
// definition of "accepted" — and the entry is removed only when the
// request reaches a terminal answer (success, failure, or deadline).
// Work canceled by a graceful drain keeps its entry, so a restarted
// server finds it, re-executes it (sweeps warm-start from their
// checkpoints, so finished points are not run twice), and caches the
// result for the client to collect from /v1/result. An accepted
// request can therefore be shed by a crash or drain but never silently
// lost.

// pendingRequest is one journaled accepted request.
type pendingRequest struct {
	// Kind routes re-execution: "run", "sweep", or "advise".
	Kind string `json:"kind"`
	// Fingerprint is the request's content address.
	Fingerprint string `json:"fingerprint"`
	// Body is the original request body (for run/sweep) or the
	// canonical query (for advise), sufficient to re-execute.
	Body json.RawMessage `json:"body"`
}

// journal persists pendingRequests as one file per fingerprint under
// dir, each written atomically.
type journal struct {
	dir string
}

func openJournal(dir string) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	return &journal{dir: dir}, nil
}

func (j *journal) path(fp string) string {
	return filepath.Join(j.dir, fp+".json")
}

// put records an accepted request (atomic write-rename).
func (j *journal) put(p pendingRequest) error {
	data, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("serve: journal encode: %w", err)
	}
	if err := atomicfile.Write(j.path(p.Fingerprint), data); err != nil {
		return fmt.Errorf("serve: journal write: %w", err)
	}
	return nil
}

// remove retires a settled request's entry.
func (j *journal) remove(fp string) {
	os.Remove(j.path(fp))
}

// has reports whether fp has a pending entry.
func (j *journal) has(fp string) bool {
	_, err := os.Stat(j.path(fp))
	return err == nil
}

// list returns every pending entry, sorted by fingerprint for a
// deterministic resume order. Unreadable entries are skipped (a torn
// temp file cannot exist — writes are atomic — but a hand-edited one
// should not wedge startup).
func (j *journal) list() ([]pendingRequest, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	var out []pendingRequest
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(j.dir, e.Name()))
		if err != nil {
			continue
		}
		var p pendingRequest
		if json.Unmarshal(data, &p) != nil || !validFingerprint(p.Fingerprint) {
			continue
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Fingerprint < out[k].Fingerprint })
	return out, nil
}
