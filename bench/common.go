package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// params is what one workload section is asked to do.
type params struct {
	// seed is the workload seed. It reaches the program under test only
	// as generated inputs: Options.BaseSeed / Campaign.BaseSeed /
	// scenario seeds / the request-mix PRNG (see baseSeed).
	seed int64
	// seconds is how long the section's timed batches run.
	seconds float64
	// smoke shrinks every size so the wiring and every output check run
	// in about a second; timing is meaningless then.
	smoke bool
	// tmp is a scratch directory for ledgers and wtcpd data dirs.
	tmp string
	// tr records spans in the traced run; nil otherwise.
	tr *tracer
	// quick asks for a single set-up: the traced run reports no setup_s.
	quick bool
	// cal takes a calibration sample between the parts of every timed
	// batch; nil takes none.
	cal *calibrator
}

// setupRepeats is how many times a section sets itself up, so that
// setup_s is a median and not one cold reading.
func (p params) setupRepeats() int {
	if p.smoke || p.quick {
		return 1
	}
	return 3
}

// untimed is p for set-up work: same inputs, no spans, no clock.
func (p params) untimed() params {
	return params{seed: p.seed, smoke: p.smoke, tmp: p.tmp}
}

// baseSeed spreads workload seeds apart: the engine uses BaseSeed+1..R
// for a point's replications and the service mix uses a few thousand
// consecutive scenario seeds, so adjacent -seed values must not share
// them.
func baseSeed(seed int64) int64 { return seed * 100000 }

// batchSample is one equal-work batch of a section. A batch is made of
// a fixed list of parts (the ladder's four rungs, the zoo's two halves,
// the cell's three policies), each about 0.1-1 s of work: long enough to
// carry its share of garbage collection, short enough that some batch
// runs it undisturbed.
type batchSample struct {
	walls []time.Duration // per part, summed over the part's timed calls
	cpus  []time.Duration // process CPU over the same calls
	ops   int             // completed operations, all parts together
	opMs  float64         // median latency of the section's op, this batch
}

func (b batchSample) wall() (d time.Duration) {
	for _, w := range b.walls {
		d += w
	}
	return d
}

// sectionResult is what a section hands back for the end-to-end
// figures: one sample per timed batch, one duration per set-up.
type sectionResult struct {
	batches []batchSample
	setups  []time.Duration
}

// minBatches keeps a run on a slow box from reporting a quiet decile of
// two or three batches; smoke runs use exactly smokeBatches.
const (
	minBatches   = 5
	smokeBatches = 2
)

// timedBatches runs fn for batch 0, 1, 2, … until the section's time
// is used up (and at least minBatches ran).
func (p params) timedBatches(fn func(i int) error) (int, error) {
	if p.smoke {
		for i := 0; i < smokeBatches; i++ {
			if err := fn(i); err != nil {
				return i, err
			}
		}
		return smokeBatches, nil
	}
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	i := 0
	for ; i < minBatches || time.Now().Before(deadline); i++ {
		if err := fn(i); err != nil {
			return i, err
		}
	}
	return i, nil
}

// timed runs fn and returns its wall and process-CPU time.
func timed(fn func()) (wall, cpu time.Duration) {
	c0 := processCPU()
	t0 := time.Now()
	fn()
	return time.Since(t0), processCPU() - c0
}

// quietTotals is the quiet-decile cost of one batch: each part's
// quiet-decile wall and CPU time over the batches, summed over parts.
// Taking the decile per part rather than per batch asks only that each
// part met a quiet stretch in some batch, not that a whole batch did.
func quietTotals(batches []batchSample) (wall, cpu float64) {
	if len(batches) == 0 {
		return 0, 0
	}
	for c := range batches[0].walls {
		var ws, cs []float64
		for _, b := range batches {
			ws = append(ws, b.walls[c].Seconds())
			if b.cpus[c] > 0 {
				cs = append(cs, b.cpus[c].Seconds())
			} else {
				cs = append(cs, b.walls[c].Seconds()) // no rusage on this platform
			}
		}
		wall += quiet(ws, lower)
		cpu += quiet(cs, lower)
	}
	return wall, cpu
}

// quietRate is a section's ops_per_s.
func quietRate(batches []batchSample) float64 {
	wall, _ := quietTotals(batches)
	if wall <= 0 {
		return 0
	}
	return float64(batches[0].ops) / wall
}

// endToEndReadings derives the five end-to-end figures every workload
// reports from its batches and set-ups. The three time metrics and
// setup_s are scaled to reference speed by the run's calibration (see
// calibrate.go); the raw figures are kept beside them.
func endToEndReadings(rep *report, res sectionResult, cal *calibrator) {
	slow, calN := cal.slowness()
	rep.set("bench.slowness", slow, "ratio", fmt.Sprintf("quiet-decile calibration time of %d samples / %.1f ms reference", calN, calRefMs))
	scaled := func(name string, raw float64, unit string, better direction, note string) {
		rep.set(name+"_raw", raw, unit, note)
		v := raw / slow // a time shrinks to what it would be at reference speed
		if better == higher {
			v = raw * slow
		}
		rep.set(name, v, unit, fmt.Sprintf("at reference speed (raw %.6g, slowness %.3f)", raw, slow))
	}
	var batches []batchSample
	var opMs, totals []float64
	for _, b := range res.batches {
		if b.ops == 0 || b.wall() <= 0 {
			continue
		}
		batches = append(batches, b)
		opMs = append(opMs, b.opMs)
		totals = append(totals, b.wall().Seconds())
	}
	if len(batches) > 0 {
		wall, cpu := quietTotals(batches)
		ops := float64(batches[0].ops)
		_, q2, _ := quartiles(totals)
		note := fmt.Sprintf("%.0f ops over the per-part quiet deciles of %d batches x %d parts (%.4g s; batch p50 %.4g s)",
			ops, len(batches), len(batches[0].walls), wall, q2)
		scaled("ops_per_s", ops/wall, "1/s", higher, note)
		scaled("cpu_ms_per_op", 1000*cpu/ops, "ms", lower, note)
		rep.set("bench.noise_ratio", q2/wall, "ratio", "batch wall p50 / quiet-decile batch")
	}
	scaled("op_ms_p50", quiet(opMs, lower), "ms", lower, quietNote(opMs))
	rep.set("peak_rss_mb", peakRSSMB(), "MB", "VmHWM of this process")
	var setups []float64
	for _, d := range res.setups {
		setups = append(setups, d.Seconds())
	}
	scaled("setup_s", median(setups), "s", lower, fmt.Sprintf("median of %d set-ups", len(setups)))
	rep.set("bench.batches", float64(len(batches)), "count", "")
}

// digest accumulates result floats; sum48 is the first 48 bits of the
// sha256, small enough to print as an exact float64.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) bits(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d *digest) floats(vs ...float64) {
	for _, v := range vs {
		d.bits(math.Float64bits(v))
	}
}

func (d *digest) str(s string) { d.h.Write([]byte(s)) }

func (d *digest) sum48() uint64 {
	sum := d.h.Sum(nil)
	return binary.BigEndian.Uint64(sum[:8]) >> 16
}

// scratchSeq numbers scratch paths so every ledger, checkpoint and data
// dir a run creates is fresh.
var scratchSeq atomic.Int64

// scratch returns a fresh path under the section's scratch directory.
func (p params) scratch(kind string) string {
	return filepath.Join(p.tmp, fmt.Sprintf("%s-%d", kind, scratchSeq.Add(1)))
}

// scratchDir creates and returns a fresh directory.
func (p params) scratchDir(kind string) (string, error) {
	dir := p.scratch(kind)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
