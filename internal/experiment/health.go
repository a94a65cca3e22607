package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
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
// worker pool.
type Health struct {
	mu           sync.Mutex
	start        time.Time
	statusPath   string
	stragglerOut io.Writer
	lastWrite    time.Time

	nextID      uint64
	active      map[uint64]activeRun
	completed   uint64
	failed      uint64
	retried     uint64
	quarantined uint64
	events      uint64
	recent      []float64 // seconds of the last maxDurations successful runs, a ring
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

	// maxDurations bounds the run-duration sample the median is read
	// from: a resident wtcpd shares one Health for its whole life.
	maxDurations = 1024

	// statusWriteInterval throttles implicit status-file rewrites; an
	// explicit WriteStatus always writes.
	statusWriteInterval = time.Second
)

// HealthSnapshot is the status-JSON schema (written atomically to the
// configured status path, printed on SIGUSR1). Field names are part of
// the external interface; tests validate them.
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

// SetStatusPath makes every state change (throttled) and every explicit
// WriteStatus persist a snapshot to path via atomic write-rename.
func (h *Health) SetStatusPath(path string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.statusPath = path
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

// RunStarted registers an in-flight replication attempt and returns its
// handle for RunFinished. Exported so run-capable CLIs that drive
// core.Run directly (wtcp sim) can feed the same heartbeat.
func (h *Health) RunStarted(key string, seed int64) uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID++
	id := h.nextID
	h.active[id] = activeRun{key: key, seed: seed, started: time.Now()}
	return id
}

// RunFinished retires an attempt: events feeds the throughput gauge, ok
// distinguishes a completed run from a failed/aborted attempt. Runs far
// beyond the completed-run median are appended to the straggler log.
func (h *Health) RunFinished(id uint64, events uint64, ok bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
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
	h.maybeWriteStatus()
}

// noteDuration adds a completed run's duration to the sample, evicting
// the oldest once it holds maxDurations. Caller holds h.mu.
func (h *Health) noteDuration(sec float64) {
	if len(h.recent) < maxDurations {
		h.recent = append(h.recent, sec)
	} else {
		old := h.recent[h.next]
		h.recent[h.next] = sec
		h.next = (h.next + 1) % maxDurations
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
	h.mu.Unlock()
}

// noteQuarantine counts one point removed by the circuit breaker.
func (h *Health) noteQuarantine() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.quarantined++
	h.mu.Unlock()
	h.maybeWriteStatus()
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
	if h == nil {
		return HealthSnapshot{}
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
		HeapBytes:       sim.LiveHeapBytes(), // not runtime.ReadMemStats: a snapshot rides on every fleet RPC and /healthz
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
	return snap
}

// String renders the snapshot for humans (the SIGUSR1 dump).
func (h *Health) String() string {
	snap := h.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "engine health @ %s (up %.1fs)\n", snap.Timestamp.Format(time.RFC3339), snap.UptimeSec)
	fmt.Fprintf(&b, "  runs: %d completed, %d failed, %d retried, %d quarantined, %d active\n",
		snap.Completed, snap.Failed, snap.Retried, snap.Quarantined, len(snap.ActiveRuns))
	fmt.Fprintf(&b, "  events: %d total, %.0f/s; median run %.2fs; heap %d MiB\n",
		snap.EventsProcessed, snap.EventsPerSec, snap.MedianRunSec, snap.HeapBytes>>20)
	for _, ar := range snap.ActiveRuns {
		fmt.Fprintf(&b, "  active: %s seed %d (%.1fs)\n", ar.Key, ar.Seed, ar.RunningSec)
	}
	for _, s := range snap.Stragglers {
		fmt.Fprintf(&b, "  straggler: %s seed %d took %.2fs (median %.2fs)\n", s.Key, s.Seed, s.Sec, s.MedianSec)
	}
	return b.String()
}

// maybeWriteStatus persists a snapshot when a status path is configured,
// throttled so a fast sweep doesn't rewrite the file per replication.
func (h *Health) maybeWriteStatus() {
	if h == nil {
		return
	}
	h.mu.Lock()
	path := h.statusPath
	due := path != "" && time.Since(h.lastWrite) >= statusWriteInterval
	if due {
		h.lastWrite = time.Now()
	}
	h.mu.Unlock()
	if due {
		if err := h.WriteStatus(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment: write status: %v\n", err)
		}
	}
}

// WriteStatus writes the current snapshot to the configured status path
// by atomic write-rename, so a poller never reads a torn file. No-op
// without a status path.
func (h *Health) WriteStatus() error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	path := h.statusPath
	h.mu.Unlock()
	if path == "" {
		return nil
	}
	data, err := h.SnapshotJSON()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("experiment: status dir: %w", err)
	}
	if err := atomicfile.Write(path, data); err != nil {
		return fmt.Errorf("experiment: write status: %w", err)
	}
	return nil
}

// Heartbeat wires up the standard CLI heartbeat in one call: status
// snapshots persist to statusPath (throttled on state changes, plus a
// final write at stop), and SIGUSR1 dumps the human-readable snapshot
// to sigDump. Every run-capable entry point (the shared execution flags
// of wtcp sim, figures, report and advise, and wtcp serve) goes through
// here so the status-file schema and signal behaviour cannot drift
// between them. The returned stop is idempotent.
func (h *Health) Heartbeat(statusPath string, sigDump io.Writer) (stop func()) {
	if h == nil {
		return func() {}
	}
	h.SetStatusPath(statusPath)
	stopSig := h.NotifyOnSignal(sigDump)
	var once sync.Once
	return func() {
		once.Do(func() {
			stopSig()
			if err := h.WriteStatus(); err != nil {
				fmt.Fprintf(os.Stderr, "experiment: write status: %v\n", err)
			}
		})
	}
}

// SnapshotJSON renders the current snapshot in the status-file schema
// (trailing newline included) — the same bytes WriteStatus persists.
// wtcpd serves this from /healthz.
func (h *Health) SnapshotJSON() ([]byte, error) {
	data, err := json.MarshalIndent(h.Snapshot(), "", "  ")
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

// StartPolling rewrites the status file every interval until the
// returned stop function is called. Useful for long sweeps where state
// changes (and therefore implicit writes) are minutes apart.
func (h *Health) StartPolling(interval time.Duration) (stop func()) {
	if h == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if err := h.WriteStatus(); err != nil {
					fmt.Fprintf(os.Stderr, "experiment: write status: %v\n", err)
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
