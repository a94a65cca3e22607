package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"wtcp/internal/atomicfile"
	"wtcp/internal/recordlog"
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

const (
	journalFile = "pending.log"
	// journalCompactBytes is how much the log may grow past its last
	// rewrite before it is rewritten from the live set. The live set is
	// a handful of requests (slots plus resumed work), so the log is
	// almost entirely settled put/tombstone pairs; 1 MiB is ~1 700 such
	// pairs, which makes the rewrite's one file creation a per-mille
	// cost of the appends it follows and keeps the replay at open short.
	journalCompactBytes = 1 << 20
)

// The first payload byte of a journal record says which kind it is.
var (
	journalPut       = []byte{'P'} // then the pendingRequest as JSON
	journalTombstone = []byte{'T'} // then the settled fingerprint
)

// journal persists pendingRequests as one recordlog under dir: a put
// appends the request, a remove appends a tombstone, and the live set —
// what a replay of the log yields — is mirrored in memory for has and
// list. A fingerprint is live if its last record is a put; a tombstone
// with no put, a repeated put and a put after a tombstone all replay to
// exactly that.
type journal struct {
	path string

	mu        sync.Mutex
	log       *recordlog.Log
	live      map[string]pendingRequest
	compactAt int64
}

// openJournal replays dir's log (cutting a torn or corrupt tail and
// saying so), adopts any one-file-per-request entries an older server
// left behind, and rewrites the log from the live set.
func openJournal(dir string) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	j := &journal{path: filepath.Join(dir, journalFile), live: map[string]pendingRequest{}}
	skipped := 0
	log, dropped, err := recordlog.Open(j.path, func(_ int64, payload []byte) error {
		if !j.replay(payload) {
			skipped++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("serve: journal %s: %w", j.path, err)
	}
	j.log = log
	if dropped > 0 || skipped > 0 {
		fmt.Fprintf(os.Stderr, "wtcpd: journal %s: cut %d bytes of torn or corrupt tail, skipped %d unreadable record(s)\n", j.path, dropped, skipped)
	}
	legacy := j.adoptLegacy(dir)
	if err := j.rewriteLocked(); err != nil {
		j.log.Close()
		return nil, err
	}
	// Only now are the adopted requests in the log; a crash before this
	// line adopts them again, which replays to the same live set.
	for _, name := range legacy {
		os.Remove(filepath.Join(dir, name))
	}
	return j, nil
}

// decodePending parses a journaled request, in a put record or in a
// legacy file; one without a well-formed fingerprint is not a request.
func decodePending(data []byte) (p pendingRequest, ok bool) {
	ok = json.Unmarshal(data, &p) == nil && validFingerprint(p.Fingerprint)
	return p, ok
}

// replay applies one record to the live set, reporting whether it was
// understood.
func (j *journal) replay(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	switch payload[0] {
	case journalPut[0]:
		p, ok := decodePending(payload[1:])
		if ok {
			j.live[p.Fingerprint] = p
		}
		return ok
	case journalTombstone[0]:
		delete(j.live, string(payload[1:]))
		return true
	}
	return false
}

// adoptLegacy folds <fp>.json files — the layout before the log — into
// the live set and returns their names for removal. Accepted work is a
// promise, so these are resumed like any other entry; a file that does
// not parse could never be re-executed and is only removed.
func (j *journal) adoptLegacy(dir string) (names []string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	adopted := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		names = append(names, e.Name())
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		p, ok := decodePending(data)
		if !ok {
			continue
		}
		if _, ok := j.live[p.Fingerprint]; !ok {
			j.live[p.Fingerprint] = p
		}
		adopted++
	}
	if len(names) > 0 {
		fmt.Fprintf(os.Stderr, "wtcpd: journal: adopted %d of %d legacy per-request file(s) into %s\n", adopted, len(names), j.path)
	}
	return names
}

// rewriteLocked replaces the log with one put per live request (write
// temp, rename: a crash leaves the old log or the new one) and reopens
// it for appending.
func (j *journal) rewriteLocked() error {
	var buf []byte
	for _, p := range j.listLocked() {
		data, err := json.Marshal(p)
		if err != nil {
			return fmt.Errorf("serve: journal encode: %w", err)
		}
		buf = recordlog.AppendRecord(buf, journalPut, data)
	}
	if err := atomicfile.Write(j.path, buf); err != nil {
		return fmt.Errorf("serve: journal rewrite: %w", err)
	}
	// The old handle now names an unlinked file. Close it before looking
	// at the reopen's error, so that if the reopen failed every later put
	// fails by name instead of appending where no restart will look.
	j.log.Close()
	log, _, err := recordlog.Open(j.path, nil)
	if err != nil {
		return fmt.Errorf("serve: journal reopen: %w", err)
	}
	j.log = log
	j.compactAt = log.Size() + journalCompactBytes
	return nil
}

// grownLocked, called after an append and its change to the live set,
// rewrites the log once it has grown journalCompactBytes past the last
// rewrite. A rewrite whose write fails costs nothing but disk: the old
// log is intact and still appended to.
func (j *journal) grownLocked() {
	if j.log.Size() < j.compactAt {
		return
	}
	if err := j.rewriteLocked(); err != nil {
		fmt.Fprintf(os.Stderr, "wtcpd: %v\n", err)
		j.compactAt = j.log.Size() + journalCompactBytes
	}
}

// put records an accepted request: one append.
func (j *journal) put(p pendingRequest) error {
	data, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("serve: journal encode: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.log.Append(journalPut, data); err != nil {
		return fmt.Errorf("serve: journal write: %w", err)
	}
	j.live[p.Fingerprint] = p
	j.grownLocked()
	return nil
}

// remove retires a settled request's entry: one tombstone append. If
// the append fails the request is re-executed next life, which
// recomputes the same bytes; it is reported, not fatal.
func (j *journal) remove(fp string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.live[fp]; !ok {
		return
	}
	delete(j.live, fp)
	if _, err := j.log.Append(journalTombstone, []byte(fp)); err != nil {
		fmt.Fprintf(os.Stderr, "wtcpd: serve: journal write: %v\n", err)
	}
	j.grownLocked()
}

// has reports whether fp has a pending entry.
func (j *journal) has(fp string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.live[fp]
	return ok
}

// list returns every pending entry, sorted by fingerprint for a
// deterministic resume order.
func (j *journal) list() []pendingRequest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.listLocked()
}

func (j *journal) listLocked() []pendingRequest {
	out := make([]pendingRequest, 0, len(j.live))
	for _, p := range j.live {
		out = append(out, p)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Fingerprint < out[k].Fingerprint })
	return out
}

// entries is the number of pending requests.
func (j *journal) entries() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.live)
}

// close releases the log. Appends after it fail with a named error.
func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.log.Close()
}
