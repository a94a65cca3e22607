package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"wtcp/internal/atomicfile"
	"wtcp/internal/sim"
)

// Health is the engine's real-time heartbeat: which replications are in
// flight right now, aggregate throughput (kernel events per second of
// wall clock), completed/retried/failed/quarantined counts, process
// memory, and a straggler log of runs that took far longer than the
// median of their peers. All methods are safe on a nil receiver (the
// engine calls them unconditionally) and safe for concurrent use by the
// scheduler. The engine's hooks only count, under one lock each; the
// status file and the SIGUSR1 dump belong to Heartbeat.
type Health struct {
	mu           sync.Mutex
	start        time.Time
	stragglerOut io.Writer
	changes      uint64 // bumped by every hook, so Heartbeat skips an unchanged file

	nextID      uint64
	active      map[uint64]activeRun
	completed   uint64
	failed      uint64
	retried     uint64
	quarantined uint64
	quarantines []Quarantine // the first maxKept noted
	events      uint64
	recent      []float64 // seconds of the last maxKept successful runs, a ring
	next        int       // the ring's oldest entry, once it is full
	durations   []float64 // recent, kept sorted
	stragglers  []Straggler
}

// activeRun is one in-flight replication attempt.
type activeRun struct {
	key     string
	seed    int64
	started time.Time
}

// Straggler thresholds: a run is logged when it exceeds
// stragglerFactor times the median of at least stragglerMinSamples
// already-completed runs and also ran longer than stragglerFloor — among
// millisecond runs four times the median is scheduler noise, not a run
// anyone needs to look at. The list is capped so a pathological sweep
// cannot grow the status file without bound.
const (
	stragglerFactor     = 4.0
	stragglerMinSamples = 3
	stragglerFloor      = time.Second
	maxStragglers       = 32

	// maxKept bounds the run-duration sample the median is read from and
	// the quarantine records kept (the quarantined count goes on): a
	// resident wtcpd, which reads no record, shares one Health for its
	// whole life, while a CLI run's lives for one command.
	maxKept = 1024

	// statusWriteInterval is how often Heartbeat rewrites a changed
	// status file; it writes once more at stop.
	statusWriteInterval = time.Second
)

// HealthSnapshot is the one status model, rendered two ways: as JSON by
// SnapshotJSON (the -status file, /healthz and the SIGUSR1 dump) and as
// Prometheus text by wtcpd's /metrics. Field names are part of the
// external interface; tests validate them.
type HealthSnapshot struct {
	Timestamp       time.Time   `json:"timestamp"`
	UptimeSec       float64     `json:"uptime_sec"`
	ActiveRuns      []ActiveRun `json:"active_runs"`
	Completed       uint64      `json:"completed"`
	Failed          uint64      `json:"failed"`
	Retried         uint64      `json:"retried"`
	Quarantined     uint64      `json:"quarantined"`
	EventsProcessed uint64      `json:"events_processed"`
	EventsPerSec    float64     `json:"events_per_sec"`
	MedianRunSec    float64     `json:"median_run_sec"` // over the last 1 024 completed runs
	HeapBytes       uint64      `json:"heap_bytes"`     // live heap object bytes (sim.LiveHeapBytes)
	Stragglers      []Straggler `json:"stragglers,omitempty"`
}

// ActiveRun is one in-flight replication in a snapshot.
type ActiveRun struct {
	Key        string  `json:"key"`
	Seed       int64   `json:"seed"`
	RunningSec float64 `json:"running_sec"`
}

// Straggler is one run that ran far past the median of its peers.
type Straggler struct {
	Key       string  `json:"key"`
	Seed      int64   `json:"seed"`
	Sec       float64 `json:"sec"`
	MedianSec float64 `json:"median_sec"`
}

// NewHealth returns a heartbeat collector. Straggler lines go to stderr
// until SetStragglerLog redirects them.
func NewHealth() *Health {
	return &Health{
		start:        time.Now(),
		stragglerOut: os.Stderr,
		active:       map[uint64]activeRun{},
	}
}

// SetStragglerLog redirects straggler log lines (nil silences them).
func (h *Health) SetStragglerLog(w io.Writer) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stragglerOut = w
}

// runStarted registers an in-flight replication attempt and returns its
// handle for runFinished.
func (h *Health) runStarted(key string, seed int64) uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID++
	h.changes++
	id := h.nextID
	h.active[id] = activeRun{key: key, seed: seed, started: time.Now()}
	return id
}

// runFinished retires an attempt: events feeds the throughput gauge, ok
// distinguishes a completed run from a failed/aborted attempt. Runs far
// beyond the completed-run median are appended to the straggler log.
func (h *Health) runFinished(id uint64, events uint64, ok bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.changes++
	ar, tracked := h.active[id]
	delete(h.active, id)
	h.events += events
	var line string
	if ok {
		h.completed++
		if tracked {
			sec := time.Since(ar.started).Seconds()
			if med, n := MedianOf(h.durations), len(h.durations); n >= stragglerMinSamples &&
				sec > stragglerFactor*med && sec > stragglerFloor.Seconds() {
				if len(h.stragglers) < maxStragglers {
					h.stragglers = append(h.stragglers, Straggler{Key: ar.key, Seed: ar.seed, Sec: sec, MedianSec: med})
				}
				line = fmt.Sprintf("experiment: straggler: %s seed %d took %.2fs (median %.2fs over %d runs)\n",
					ar.key, ar.seed, sec, med, n)
			}
			h.noteDuration(sec)
		}
	} else {
		h.failed++
	}
	out := h.stragglerOut
	h.mu.Unlock()
	if line != "" && out != nil {
		fmt.Fprint(out, line)
	}
}

// noteDuration adds a completed run's duration to the sample, evicting
// the oldest once it holds maxKept. Caller holds h.mu.
func (h *Health) noteDuration(sec float64) {
	if len(h.recent) < maxKept {
		h.recent = append(h.recent, sec)
	} else {
		old := h.recent[h.next]
		h.recent[h.next] = sec
		h.next = (h.next + 1) % maxKept
		if i, ok := slices.BinarySearch(h.durations, old); ok {
			h.durations = slices.Delete(h.durations, i, i+1)
		}
	}
	i, _ := slices.BinarySearch(h.durations, sec)
	h.durations = slices.Insert(h.durations, i, sec)
}

// noteRetry counts one perturbed-seed retry.
func (h *Health) noteRetry() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.retried++
	h.changes++
	h.mu.Unlock()
}

// noteQuarantine counts and keeps one point removed by the circuit
// breaker. The scheduler notes a sweep's quarantines in index order.
func (h *Health) noteQuarantine(q Quarantine) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.quarantined++
	if len(h.quarantines) < maxKept {
		h.quarantines = append(h.quarantines, q)
	}
	h.changes++
	h.mu.Unlock()
}

// Quarantined returns the first maxKept quarantine records noted, each
// sweep's in the order its points were (or, on resume, would have been)
// reached, and how many were noted in all.
func (h *Health) Quarantined() ([]Quarantine, uint64) {
	if h == nil {
		return nil, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.quarantines), h.quarantined
}

// MedianOf returns the median of the sorted slice s (0 when empty). The
// fleet coordinator's steal threshold uses it too.
func MedianOf(s []float64) float64 {
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Snapshot captures the current heartbeat.
func (h *Health) Snapshot() HealthSnapshot {
	snap, _ := h.snapshot()
	return snap
}

// snapshot captures the current heartbeat and the change count it
// reflects.
func (h *Health) snapshot() (HealthSnapshot, uint64) {
	if h == nil {
		return HealthSnapshot{}, 0
	}
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := HealthSnapshot{
		Timestamp:       now,
		UptimeSec:       now.Sub(h.start).Seconds(),
		Completed:       h.completed,
		Failed:          h.failed,
		Retried:         h.retried,
		Quarantined:     h.quarantined,
		EventsProcessed: h.events,
		MedianRunSec:    MedianOf(h.durations),
		HeapBytes:       sim.LiveHeapBytes(), // not runtime.ReadMemStats: every /healthz and /metrics scrape takes a snapshot
		Stragglers:      append([]Straggler(nil), h.stragglers...),
	}
	if snap.UptimeSec > 0 {
		snap.EventsPerSec = float64(h.events) / snap.UptimeSec
	}
	for _, ar := range h.active {
		snap.ActiveRuns = append(snap.ActiveRuns, ActiveRun{
			Key: ar.key, Seed: ar.seed, RunningSec: now.Sub(ar.started).Seconds(),
		})
	}
	sort.Slice(snap.ActiveRuns, func(i, j int) bool {
		a, b := snap.ActiveRuns[i], snap.ActiveRuns[j]
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Seed < b.Seed
	})
	return snap, h.changes
}

// Heartbeat attaches the collector's two outputs in one call: while it
// runs, the status snapshot is rewritten atomically to statusPath (when
// set) at most once per statusWriteInterval and only after a change,
// and once more at stop, and SIGUSR1 dumps the same JSON to sigDump
// (stderr when nil). One goroutine does both, so the engine's hooks
// never touch a file. Every run-capable entry point (the shared
// execution flags of wtcp sim, figures, report and advise, and wtcp
// serve) goes through here so the status-file schema and signal
// behaviour cannot drift between them. The returned stop is idempotent.
func (h *Health) Heartbeat(statusPath string, sigDump io.Writer) (stop func()) {
	if h == nil {
		return func() {}
	}
	if sigDump == nil {
		sigDump = os.Stderr
	}
	sig, stopSig := dumpSignal()
	var ticker *time.Ticker
	var tick <-chan time.Time
	if statusPath != "" {
		ticker = time.NewTicker(statusWriteInterval)
		tick = ticker.C
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		var written uint64 // the change count the file shows
		for {
			select {
			case <-done:
				return
			case <-sig:
				if data, err := h.SnapshotJSON(); err == nil {
					sigDump.Write(data)
				}
			case <-tick:
				if snap, n := h.snapshot(); n != written {
					written = n
					writeStatus(statusPath, snap)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			stopSig()
			close(done)
			<-exited
			if ticker != nil {
				ticker.Stop()
				writeStatus(statusPath, h.Snapshot())
			}
		})
	}
}

// writeStatus persists snap to path by atomic write-rename, so a poller
// never reads a torn file. A failure is reported on stderr: the sweep
// it describes goes on.
func writeStatus(path string, snap HealthSnapshot) {
	data, err := encodeSnapshot(snap)
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = atomicfile.Write(path, data)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiment: write status: %v\n", err)
	}
}

// SnapshotJSON renders the current snapshot in the status-file schema
// (trailing newline included): the bytes Heartbeat writes to the status
// file and to SIGUSR1's dump, and wtcpd serves from /healthz.
func (h *Health) SnapshotJSON() ([]byte, error) {
	return encodeSnapshot(h.Snapshot())
}

// encodeSnapshot is the one JSON rendering of a snapshot.
func encodeSnapshot(snap HealthSnapshot) ([]byte, error) {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiment: encode status: %w", err)
	}
	return append(data, '\n'), nil
}

// MedianRunSeconds returns the median wall-clock duration of the last
// 1 024 completed runs, 0 until one has finished. wtcpd's admission
// controller derives Retry-After hints from it.
func (h *Health) MedianRunSeconds() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return MedianOf(h.durations)
}
