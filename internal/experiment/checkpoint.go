package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"wtcp/internal/atomicfile"
	"wtcp/internal/recordlog"
	"wtcp/internal/sim"
)

// The ledger file, version 2, is a recordlog (internal/recordlog): one
// header record, then one record per settled point or quarantine in the
// order they were settled, so settling a point is one append. A file
// whose version or fingerprint does not match is refused rather than
// misread, and so is a version 1 file (one JSON object), which no build
// has written since the record log replaced it.
const logVersion = 2

// The first payload byte of a version 2 record says which kind it is;
// the rest is the record as JSON.
var (
	recHeader     = []byte{'H'} // ledgerHeader; the first record, only there
	recPoint      = []byte{'P'} // pointRecord
	recQuarantine = []byte{'Q'} // Quarantine
)

// ledgerHeader is a version 2 file's first record. Fingerprint ties the
// file to the Options that produced it: resuming a sweep under
// different result-affecting options would silently merge incompatible
// samples, so such a file is refused with instructions instead.
type ledgerHeader struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// pointRecord is one finished sweep point: its key and the raw
// per-replication records, already in seed order.
type pointRecord struct {
	Key  string      `json:"key"`
	Reps []RepRecord `json:"reps"`
}

// stderr receives the ledger's reports of a torn tail it cut.
var stderr io.Writer = os.Stderr

// Ledger is the store behind a checkpoint file and the one place a
// sweep point is settled: the engine's figure sweeps, wtcpd's sweep and
// advise executors (Settle) and the fleet coordinator (Record, its
// workers execute remotely) all keep their points here, which is why a
// campaign finished by any of them reloads byte-identically through any
// other. Whom a record settles its point for is decided once
// (lookupLocked), so one file serves callers of any budget: Settle asks
// under its caller's options, Has and Record under the opener's. A nil
// *Ledger means no persistence: Settle just executes.
//
// Several sweeps in one process (Fig7 then Fig8, say) may each open the
// same path sequentially; each instance loads what the previous one
// saved and appends its own points. While open, the ledger holds an
// exclusive advisory lock on <path>.lock: two processes appending to
// the same file would interleave each other's records, so the second
// opener fails fast instead. The lock is released by Close and by the
// kernel if the process dies, so a SIGKILLed campaign never leaves a
// stale lock behind.
type Ledger struct {
	path        string
	fingerprint string
	budget      sim.Budget // the opener's, resolved: what Has and Record settle a key under
	unlock      func()

	mu        sync.Mutex
	log       *recordlog.Log // nil until the file exists
	order     []string
	points    map[string][]RepRecord
	quarOrder []string
	quars     map[string]Quarantine
}

// OpenLedger loads path if it exists, or prepares an empty ledger,
// bound to the result-affecting fingerprint of opt and, for Has and
// Record, to its run budget. It takes the exclusive lock first; a path
// already locked by a live process is refused with the holder named. A file that does not parse or carries
// another version or fingerprint is refused with the path named, left
// as it was, and the lock is released. A file that ends in a torn
// record is cut back to its last whole one, and the cut is reported on
// stderr: the points that record held run again.
func OpenLedger(path string, opt Options) (*Ledger, error) {
	unlock, err := atomicfile.Lock(path + ".lock")
	if err != nil {
		return nil, fmt.Errorf("experiment: checkpoint %s: %w; two engines must not share one checkpoint file", path, err)
	}
	l := &Ledger{path: path, fingerprint: opt.WithDefaults().fingerprint(), budget: opt.runBudget(sim.Budget{}),
		unlock: unlock, points: map[string][]RepRecord{}, quars: map[string]Quarantine{}}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err = l.replay(data); err == nil {
			err = l.reopen()
		}
	case errors.Is(err, os.ErrNotExist):
		err = nil // a fresh campaign; the first record creates the file
	default:
		err = fmt.Errorf("experiment: read checkpoint: %w", err)
	}
	if err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// CheckpointFor names the ledger file a study run under opt uses when
// its caller runs several differently-fingerprinted studies under one
// checkpoint path (a ledger file holds one fingerprint): path itself
// when opt has the fingerprint of primary, the options of the caller's
// paper sweeps, so a file they wrote keeps resuming under the path as
// given; otherwise path with "-" and the 8 hex digits of the FNV-1a hash
// of opt's fingerprint before the extension ("ck.json" ->
// "ck-1f3a9c04.json"). An empty path stays empty.
func CheckpointFor(path string, primary, opt Options) string {
	fp := Fingerprint(opt)
	if path == "" || fp == Fingerprint(primary) {
		return path
	}
	h := fnv.New32a()
	h.Write([]byte(fp))
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s-%08x%s", strings.TrimSuffix(path, ext), h.Sum32(), ext)
}

// checkHeader refuses a file of another version or fingerprint.
func (l *Ledger) checkHeader(h ledgerHeader) error {
	if h.Version != logVersion {
		return fmt.Errorf("experiment: checkpoint %s has version %d, want %d; delete it to start over",
			l.path, h.Version, logVersion)
	}
	if h.Fingerprint != l.fingerprint {
		return fmt.Errorf("experiment: checkpoint %s was written under different options (fingerprint %q, this run %q); delete it or rerun with the original options",
			l.path, h.Fingerprint, l.fingerprint)
	}
	return nil
}

// replay loads a file's bytes into the empty ledger: the header, then
// each whole record in order, applied as the write that appended it was
// — a key recorded twice holds its last record, at the place of its
// first. It stops without error at a torn tail, which reopen cuts. A
// version 1 file, one JSON object, is refused as such.
func (l *Ledger) replay(data []byte) error {
	if json.Valid(data) {
		return fmt.Errorf("experiment: checkpoint %s is a version 1 file (one JSON object), which this build does not read; delete it to start over", l.path)
	}
	damaged := fmt.Errorf("experiment: checkpoint %s has a damaged header; delete it to start over", l.path)
	header := false
	_, err := recordlog.Scan(bytes.NewReader(data), int64(len(data)), func(off int64, payload []byte) error {
		if off == 0 {
			var h ledgerHeader
			if body, ok := bytes.CutPrefix(payload, recHeader); !ok || json.Unmarshal(body, &h) != nil {
				return damaged
			}
			header = true
			return l.checkHeader(h)
		}
		var p pointRecord
		var q Quarantine
		if body, ok := bytes.CutPrefix(payload, recPoint); ok && json.Unmarshal(body, &p) == nil {
			l.applyPoint(p.Key, p.Reps)
		} else if body, ok := bytes.CutPrefix(payload, recQuarantine); ok && json.Unmarshal(body, &q) == nil {
			l.applyQuarantine(q)
		} else {
			return fmt.Errorf("experiment: checkpoint %s: unreadable record at offset %d", l.path, off)
		}
		return nil
	})
	if err == nil && !header {
		err = damaged
	}
	return err
}

// applyPoint and applyQuarantine are what a record does to the ledger,
// written or replayed; a point supersedes its key's quarantine. Caller
// holds l.mu (or owns an unpublished l).
func (l *Ledger) applyPoint(key string, reps []RepRecord) {
	if _, dup := l.points[key]; !dup {
		l.order = append(l.order, key)
	}
	l.points[key] = reps
	if _, ok := l.quars[key]; ok {
		delete(l.quars, key)
		l.quarOrder = slices.DeleteFunc(l.quarOrder, func(k string) bool { return k == key })
	}
}

func (l *Ledger) applyQuarantine(q Quarantine) {
	if _, dup := l.quars[q.Key]; !dup {
		l.quarOrder = append(l.quarOrder, q.Key)
	}
	l.quars[q.Key] = q
}

// create writes the file's header record — write temp, rename, so no
// file of this ledger ever starts torn — and opens the file for
// appending. The first record of a fresh ledger runs it. Caller holds
// l.mu.
func (l *Ledger) create() error {
	body, err := json.Marshal(ledgerHeader{logVersion, l.fingerprint})
	if err != nil {
		return fmt.Errorf("experiment: encode checkpoint: %w", err)
	}
	if err := atomicfile.Write(l.path, recordlog.AppendRecord(nil, recHeader, body)); err != nil {
		return fmt.Errorf("experiment: write checkpoint: %w", err)
	}
	return l.reopen()
}

// reopen opens the version 2 file for appending, cutting a torn tail
// and saying so.
func (l *Ledger) reopen() error {
	log, dropped, err := recordlog.Open(l.path, nil)
	if err != nil {
		return fmt.Errorf("experiment: open checkpoint: %w", err)
	}
	if dropped > 0 {
		fmt.Fprintf(stderr, "experiment: checkpoint %s: cut %d bytes of torn tail; the point it held runs again\n", l.path, dropped)
	}
	l.log = log
	return nil
}

// appendLocked persists one record: a single append, after the file is
// created on the first. Caller holds l.mu and applies the record once
// this returns nil.
func (l *Ledger) appendLocked(kind []byte, v any) error {
	if l.log == nil {
		if err := l.create(); err != nil {
			return err
		}
	}
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("experiment: encode checkpoint: %w", err)
	}
	if _, err := l.log.Append(kind, body); err != nil {
		return fmt.Errorf("experiment: write checkpoint %s: %w", l.path, err)
	}
	return nil
}

// Close closes the file and releases the exclusive lock (call it before
// another opener — the merge pass after a fleet campaign — needs the
// file). Idempotent.
func (l *Ledger) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	unlock := l.unlock
	l.unlock = nil
	if l.log != nil {
		l.log.Close()
	}
	l.mu.Unlock()
	if unlock != nil {
		unlock()
	}
}

// Settle settles specs through the ledger on the scheduler (see
// settle) and returns their outcomes in spec order. Units beyond the
// caller's goroutine run on the slots borrow lends; nil lends none.
func (l *Ledger) Settle(ctx context.Context, opt Options, specs []PointSpec, borrow func() (release func(), ok bool)) ([]PointOutcome, error) {
	opt = opt.WithDefaults()
	points, err := pointsOf(opt, specs)
	if err != nil {
		return nil, err
	}
	return l.settle(ctx, opt, points, borrow)
}

// Record stores an outcome computed elsewhere (a fleet worker's post)
// with one append, unless the key is already settled (Has): the first
// record that settles it wins, and fresh reports whether this one was
// it.
func (l *Ledger) Record(out PointOutcome) (fresh bool, err error) {
	return l.record(l.budget, out)
}

// record is Record for a caller whose runs resolve to budget b; a nil
// ledger records nothing.
func (l *Ledger) record(b sim.Budget, out PointOutcome) (fresh bool, err error) {
	if l == nil {
		return true, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, settled := l.lookupLocked(b, out.Key); settled {
		return false, nil
	}
	if q := out.Quarantine; q != nil {
		if err := l.appendLocked(recQuarantine, *q); err != nil {
			return true, err
		}
		l.applyQuarantine(*q)
		return true, nil
	}
	return true, l.putLocked(out.Key, out.Reps)
}

// lookup returns the record that settles key for a caller whose runs
// resolve to budget b.
func (l *Ledger) lookup(b sim.Budget, key string) (PointOutcome, bool) {
	if l == nil {
		return PointOutcome{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lookupLocked(b, key)
}

// lookupLocked is the one rule for what a record settles: a finished
// point settles its key for every caller (it supersedes a quarantine,
// applyPoint), a quarantine for those it answers (Quarantine.answers).
func (l *Ledger) lookupLocked(b sim.Budget, key string) (PointOutcome, bool) {
	if reps, ok := l.points[key]; ok {
		return PointOutcome{Key: key, Reps: reps}, true
	}
	if q, ok := l.quars[key]; ok && q.answers(b) {
		return PointOutcome{Key: key, Quarantine: &q}, true
	}
	return PointOutcome{}, false
}

// Has reports whether key is settled under the options the ledger was
// opened with — finished, or quarantined in a way that answers their
// budget. The coordinator queues only the keys that are not.
func (l *Ledger) Has(key string) bool {
	_, ok := l.lookup(l.budget, key)
	return ok
}

// Reps returns the recorded replications for a finished key.
func (l *Ledger) Reps(key string) ([]RepRecord, bool) {
	out, ok := l.lookup(sim.Budget{}, key)
	return out.Reps, ok && out.Quarantine == nil
}

// Quarantined returns the recorded quarantines in ledger order.
func (l *Ledger) Quarantined() []Quarantine {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Quarantine, 0, len(l.quarOrder))
	for _, k := range l.quarOrder {
		out = append(out, l.quars[k])
	}
	return out
}

// Put records a finished point unconditionally: one append. Settle and
// Record are the callers that honour first-record-wins; Put is the raw
// write under them.
func (l *Ledger) Put(key string, reps []RepRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.putLocked(key, reps)
}

func (l *Ledger) putLocked(key string, reps []RepRecord) error {
	if err := l.appendLocked(recPoint, pointRecord{Key: key, Reps: reps}); err != nil {
		return err
	}
	l.applyPoint(key, reps)
	return nil
}
