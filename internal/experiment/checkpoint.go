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
	"strings"
	"sync"

	"wtcp/internal/atomicfile"
	"wtcp/internal/recordlog"
)

// The ledger file. Version 2, the only layout written, is a recordlog
// (internal/recordlog): one header record, then one record per settled
// point or quarantine in the order they were settled, so settling a
// point is one append. Version 1 was one JSON object rewritten whole
// per point; such a file is read once and rewritten as version 2. A
// file whose version or fingerprint does not match is refused rather
// than misread.
const (
	jsonVersion = 1
	logVersion  = 2
)

// The first payload byte of a version 2 record says which kind it is;
// the rest is the record as JSON.
var (
	recHeader     = []byte{'H'} // ledgerHeader; the first record, only there
	recPoint      = []byte{'P'} // pointRecord
	recQuarantine = []byte{'Q'} // Quarantine
)

// headerPrefix is how a version 2 header record's payload begins. No
// version 1 file has these bytes after its first recordlog.HeaderSize:
// in JSON an H stands only inside a string, which the quote after `H{`
// would close, leaving `version` a bare word.
var headerPrefix = []byte(`H{"version":`)

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

// checkpointFile is the version 1 layout, one JSON object.
type checkpointFile struct {
	Version     int           `json:"version"`
	Fingerprint string        `json:"fingerprint"`
	Points      []pointRecord `json:"points"`
	// Quarantined lists points the circuit breaker removed, in the
	// order the sweep reached them. The field is additive (absent in
	// older files), so the version stayed at 1. A resumed sweep replays
	// these instead of re-running the pathological point.
	Quarantined []Quarantine `json:"quarantined,omitempty"`
}

// stderr receives the ledger's reports of a torn tail it cut.
var stderr io.Writer = os.Stderr

// Ledger is the store behind a checkpoint file and the one place a
// sweep point is settled: the engine's figure sweeps, wtcpd's sweep and
// advise executors (Settle) and the fleet coordinator (Record, its
// workers execute remotely) all keep their points here, which is why a
// campaign finished by any of them reloads byte-identically through any
// other. A nil *Ledger means no persistence: every method is safe on it,
// Settle just executes.
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
	unlock      func()

	mu        sync.Mutex
	log       *recordlog.Log // nil until the file exists
	order     []string
	points    map[string][]RepRecord
	quarOrder []string
	quars     map[string]Quarantine
}

// OpenLedger loads path if it exists, or prepares an empty ledger,
// bound to the result-affecting fingerprint of opt. It takes the
// exclusive lock first; a path already locked by a live process is
// refused with the holder named. A file that does not parse, carries
// another version or fingerprint, or (version 1) repeats a key is
// refused with the path named, left as it was, and the lock is
// released. A version 2 file that ends in a torn record is cut back to
// its last whole one, and the cut is reported on stderr: the points
// that record held run again. A version 1 file is rewritten as version
// 2.
func OpenLedger(path string, opt Options) (*Ledger, error) {
	unlock, err := atomicfile.Lock(path + ".lock")
	if err != nil {
		return nil, fmt.Errorf("experiment: checkpoint %s: %w; two engines must not share one checkpoint file", path, err)
	}
	l := &Ledger{path: path, fingerprint: opt.WithDefaults().fingerprint(), unlock: unlock,
		points: map[string][]RepRecord{}, quars: map[string]Quarantine{}}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		err = l.resume(data)
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

// resume loads the file's bytes into the empty ledger and opens the
// file for appending, adopting a version 1 file first.
func (l *Ledger) resume(data []byte) error {
	if err := l.load(data); err != nil {
		return err
	}
	if !isLog(data) {
		return l.rewrite()
	}
	return l.reopen()
}

// load loads a file's bytes, of either version, into the empty ledger.
func (l *Ledger) load(data []byte) error {
	if isLog(data) {
		return l.replay(data)
	}
	return l.decode(data)
}

// isLog reports whether data is laid out as version 2: its first
// record's payload starts as a header's does. The frame itself is not
// checked, so a damaged header is refused as one instead of being read
// as JSON.
func isLog(data []byte) bool {
	return bytes.HasPrefix(data[min(len(data), recordlog.HeaderSize):], headerPrefix)
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

// decode loads a version 1 file's bytes into the empty ledger.
func (l *Ledger) decode(data []byte) error {
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("experiment: parse checkpoint %s: %w", l.path, err)
	}
	if err := l.checkHeader(ledgerHeader{f.Version, f.Fingerprint}, jsonVersion); err != nil {
		return err
	}
	for _, p := range f.Points {
		if _, dup := l.points[p.Key]; dup {
			return fmt.Errorf("experiment: checkpoint %s repeats point %q", l.path, p.Key)
		}
		l.points[p.Key] = p.Reps
		l.order = append(l.order, p.Key)
	}
	for _, q := range f.Quarantined {
		if _, dup := l.quars[q.Key]; dup {
			return fmt.Errorf("experiment: checkpoint %s repeats quarantined point %q", l.path, q.Key)
		}
		l.quars[q.Key] = q
		l.quarOrder = append(l.quarOrder, q.Key)
	}
	return nil
}

// checkHeader refuses a file of another version or fingerprint.
func (l *Ledger) checkHeader(h ledgerHeader, version int) error {
	if h.Version != version {
		return fmt.Errorf("experiment: checkpoint %s has version %d, want %d; delete it to start over",
			l.path, h.Version, version)
	}
	if h.Fingerprint != l.fingerprint {
		return fmt.Errorf("experiment: checkpoint %s was written under different options (fingerprint %q, this run %q); delete it or rerun with the original options",
			l.path, h.Fingerprint, l.fingerprint)
	}
	return nil
}

// replay loads a version 2 file's bytes into the empty ledger: the
// header, then each whole record in order, applied as the write that
// appended it was — a key recorded twice holds its last record, at the
// place of its first. It stops without error at a torn tail, which
// reopen cuts.
func (l *Ledger) replay(data []byte) error {
	damaged := fmt.Errorf("experiment: checkpoint %s has a damaged header; delete it to start over", l.path)
	header := false
	_, err := recordlog.Scan(bytes.NewReader(data), int64(len(data)), func(off int64, payload []byte) error {
		if off == 0 {
			var h ledgerHeader
			if body, ok := bytes.CutPrefix(payload, recHeader); !ok || json.Unmarshal(body, &h) != nil {
				return damaged
			}
			header = true
			return l.checkHeader(h, logVersion)
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
// written or replayed. Caller holds l.mu (or owns an unpublished l).
func (l *Ledger) applyPoint(key string, reps []RepRecord) {
	if _, dup := l.points[key]; !dup {
		l.order = append(l.order, key)
	}
	l.points[key] = reps
}

func (l *Ledger) applyQuarantine(q Quarantine) {
	if _, dup := l.quars[q.Key]; !dup {
		l.quarOrder = append(l.quarOrder, q.Key)
	}
	l.quars[q.Key] = q
}

// layout renders the whole ledger as a version 2 file: the header, then
// every point and every quarantine, each in ledger order. Caller holds
// l.mu.
func (l *Ledger) layout() ([]byte, error) {
	data, err := appendJSON(nil, recHeader, ledgerHeader{logVersion, l.fingerprint})
	if err != nil {
		return nil, err
	}
	for _, k := range l.order {
		if data, err = appendJSON(data, recPoint, pointRecord{Key: k, Reps: l.points[k]}); err != nil {
			return nil, err
		}
	}
	for _, k := range l.quarOrder {
		if data, err = appendJSON(data, recQuarantine, l.quars[k]); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// appendJSON appends one record of the given kind holding v.
func appendJSON(dst, kind []byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("experiment: encode checkpoint: %w", err)
	}
	return recordlog.AppendRecord(dst, kind, body), nil
}

// rewrite replaces the file with the whole ledger laid out as version 2
// — write temp, rename, so a kill leaves the old file or the new one,
// and no file of this ledger ever starts torn — and opens it for
// appending. It runs once per file: when a version 1 file is adopted,
// or when the first record creates it. Caller holds l.mu (or owns an
// unpublished l).
func (l *Ledger) rewrite() error {
	data, err := l.layout()
	if err != nil {
		return err
	}
	if err := atomicfile.Write(l.path, data); err != nil {
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
		if err := l.rewrite(); err != nil {
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
// with one append, unless the key is already settled: the first record wins and fresh reports whether this one
// was it.
func (l *Ledger) Record(out PointOutcome) (fresh bool, err error) {
	if l == nil {
		return true, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, settled := l.lookupLocked(out.Key, out.Quarantine != nil); settled {
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

// lookup returns key's recorded outcome. Finished replications always
// count; a quarantine counts when withQuarantine is set.
func (l *Ledger) lookup(key string, withQuarantine bool) (PointOutcome, bool) {
	if l == nil {
		return PointOutcome{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lookupLocked(key, withQuarantine)
}

func (l *Ledger) lookupLocked(key string, withQuarantine bool) (PointOutcome, bool) {
	if reps, ok := l.points[key]; ok {
		return PointOutcome{Key: key, Reps: reps}, true
	}
	if q, ok := l.quars[key]; ok && withQuarantine {
		return PointOutcome{Key: key, Quarantine: &q}, true
	}
	return PointOutcome{}, false
}

// Has reports whether key is settled — finished or quarantined. The
// coordinator queues only the keys that are not.
func (l *Ledger) Has(key string) bool {
	_, ok := l.lookup(key, true)
	return ok
}

// Reps returns the recorded replications for a finished key.
func (l *Ledger) Reps(key string) ([]RepRecord, bool) {
	out, ok := l.lookup(key, false)
	return out.Reps, ok
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
