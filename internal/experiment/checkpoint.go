package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"wtcp/internal/atomicfile"
	"wtcp/internal/core"
)

// checkpointVersion guards the on-disk layout; a mismatched file is
// rejected rather than misread.
const checkpointVersion = 1

// pointRecord is one finished sweep point: its key and the raw
// per-replication records, already in seed order.
type pointRecord struct {
	Key  string      `json:"key"`
	Reps []RepRecord `json:"reps"`
}

// checkpointFile is the on-disk layout. Fingerprint ties the file to
// the Options that produced it: resuming a sweep under different
// result-affecting options would silently merge incompatible samples,
// so such a file is rejected with instructions instead.
type checkpointFile struct {
	Version     int           `json:"version"`
	Fingerprint string        `json:"fingerprint"`
	Points      []pointRecord `json:"points"`
	// Quarantined lists points the circuit breaker removed, in the
	// order the sweep reached them. The field is additive (absent in
	// older files), so the version stays at 1. A resumed sweep replays
	// these instead of re-running the pathological point.
	Quarantined []Quarantine `json:"quarantined,omitempty"`
}

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
// exclusive advisory lock on <path>.lock: two processes pointed at the
// same file would silently clobber each other's persistLocked writes,
// so the second opener fails fast instead. The lock is released by
// Close and by the kernel if the process dies, so a SIGKILLed campaign
// never leaves a stale lock behind.
type Ledger struct {
	path        string
	fingerprint string
	unlock      func()

	mu        sync.Mutex
	order     []string
	points    map[string][]RepRecord
	quarOrder []string
	quars     map[string]Quarantine
}

// OpenLedger loads path if it exists, or prepares an empty ledger,
// bound to the result-affecting fingerprint of opt. It takes the
// exclusive lock first; a path already locked by a live process is
// refused with the holder named. A file that does not parse, carries
// another version or fingerprint, or repeats a key is refused with the
// path named, and the lock is released.
func OpenLedger(path string, opt Options) (*Ledger, error) {
	unlock, err := atomicfile.Lock(path + ".lock")
	if err != nil {
		return nil, fmt.Errorf("experiment: checkpoint %s: %w; two engines must not share one checkpoint file", path, err)
	}
	l := &Ledger{path: path, fingerprint: opt.withDefaults().fingerprint(), unlock: unlock,
		points: map[string][]RepRecord{}, quars: map[string]Quarantine{}}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		err = l.decode(data)
	case errors.Is(err, os.ErrNotExist):
		err = nil // a fresh campaign
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

// decode loads a checkpoint file's bytes into the empty ledger.
func (l *Ledger) decode(data []byte) error {
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("experiment: parse checkpoint %s: %w", l.path, err)
	}
	if f.Version != checkpointVersion {
		return fmt.Errorf("experiment: checkpoint %s has version %d, want %d; delete it to start over",
			l.path, f.Version, checkpointVersion)
	}
	if f.Fingerprint != l.fingerprint {
		return fmt.Errorf("experiment: checkpoint %s was written under different options (fingerprint %q, this run %q); delete it or rerun with the original options",
			l.path, f.Fingerprint, l.fingerprint)
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

// Close releases the exclusive lock (call it before another opener —
// the merge pass after a fleet campaign — needs the file). Idempotent.
func (l *Ledger) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	unlock := l.unlock
	l.unlock = nil
	l.mu.Unlock()
	if unlock != nil {
		unlock()
	}
}

// Settle returns spec's settled outcome: it resolves the spec's key and
// replication function and settles that (see settle).
func (l *Ledger) Settle(ctx context.Context, opt Options, spec PointSpec) (PointOutcome, error) {
	opt = opt.withDefaults()
	p, err := spec.point(opt)
	if err != nil {
		return PointOutcome{}, err
	}
	return l.settle(ctx, opt, p)
}

// settle returns p's settled outcome — exactly one of Reps or
// Quarantine — computing and recording it if nobody has yet. It is the
// whole life of any point after dispatch (opt has its defaults applied):
//
//   - Already settled: load it. A recorded quarantine is replayed to
//     opt.Supervise here, at the point's place in sweep order, which
//     keeps a resumed sweep's output byte-identical whether the breaker
//     tripped before or after the resume boundary. (A quarantine counts
//     as settled only under supervision; an unsupervised caller asked
//     for all-or-nothing and re-runs the point.)
//   - Otherwise execute it, holding no lock: two wtcpd slots settle
//     different keys of one shared ledger concurrently.
//   - A resource-exhausted quarantine produced while ctx is already
//     done was induced by the caller's deadline or drain (the derived
//     wall-clock budget and the context expire together), not by the
//     point: recording it would poison every later warm start, so it is
//     the interruption's outcome, ctx.Err(), and nothing is recorded.
//   - Otherwise record it. First record wins: when a concurrent settle
//     of the same key got there first, its outcome is returned
//     (replications are deterministic, so the bits are the same) and
//     OnPoint stays silent.
//
// Errors are executePoint's: a fail-fast class, every replication
// failed unsupervised, or ctx ended.
func (l *Ledger) settle(ctx context.Context, opt Options, p point) (PointOutcome, error) {
	if err := ctx.Err(); err != nil {
		return PointOutcome{}, err
	}
	key, supervised := p.key, opt.Supervise != nil
	out, settled := l.lookup(key, supervised)
	if !settled {
		reps, quar, err := executePoint(ctx, opt, key, p.run)
		if err != nil {
			return PointOutcome{}, err
		}
		if quar != nil && quar.Class == string(core.ClassResourceExhausted) && ctx.Err() != nil {
			return PointOutcome{}, ctx.Err()
		}
		out = PointOutcome{Key: key, Reps: reps, Quarantine: quar}
		fresh, err := l.Record(out)
		if err != nil {
			return PointOutcome{}, err
		}
		if !fresh {
			out, _ = l.lookup(key, supervised)
		} else if quar == nil && opt.OnPoint != nil {
			opt.OnPoint(key)
		}
	}
	if out.Quarantine != nil {
		opt.noteQuarantined(*out.Quarantine)
	}
	return out, nil
}

// Record stores an outcome computed elsewhere (a fleet worker's post)
// and persists the ledger atomically, unless the key is already
// settled: the first record wins and fresh reports whether this one
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
	if out.Quarantine != nil {
		return true, l.putQuarantineLocked(*out.Quarantine)
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

// Put records a finished point unconditionally and persists the ledger
// atomically. Settle and Record are the callers that honour
// first-record-wins; Put is the raw write under them.
func (l *Ledger) Put(key string, reps []RepRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.putLocked(key, reps)
}

func (l *Ledger) putLocked(key string, reps []RepRecord) error {
	if _, dup := l.points[key]; !dup {
		l.order = append(l.order, key)
	}
	l.points[key] = reps
	return l.persistLocked()
}

// PutQuarantine records a breaker-tripped point unconditionally and
// persists the ledger.
func (l *Ledger) PutQuarantine(q Quarantine) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.putQuarantineLocked(q)
}

func (l *Ledger) putQuarantineLocked(q Quarantine) error {
	if _, dup := l.quars[q.Key]; !dup {
		l.quarOrder = append(l.quarOrder, q.Key)
	}
	l.quars[q.Key] = q
	return l.persistLocked()
}

// encodeLocked renders the whole ledger in the on-disk layout. Caller
// holds l.mu.
func (l *Ledger) encodeLocked() ([]byte, error) {
	f := checkpointFile{Version: checkpointVersion, Fingerprint: l.fingerprint}
	for _, k := range l.order {
		f.Points = append(f.Points, pointRecord{Key: k, Reps: l.points[k]})
	}
	for _, k := range l.quarOrder {
		f.Quarantined = append(f.Quarantined, l.quars[k])
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiment: encode checkpoint: %w", err)
	}
	return append(data, '\n'), nil
}

// persistLocked writes the whole ledger atomically, so a kill at any
// instant leaves either the previous complete checkpoint or the new one
// — never a torn file. Caller holds l.mu.
func (l *Ledger) persistLocked() error {
	data, err := l.encodeLocked()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(l.path), 0o755); err != nil {
		return fmt.Errorf("experiment: checkpoint dir: %w", err)
	}
	if err := atomicfile.Write(l.path, data); err != nil {
		return fmt.Errorf("experiment: write checkpoint: %w", err)
	}
	return nil
}
