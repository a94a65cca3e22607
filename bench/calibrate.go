package main

import (
	"crypto/sha256"
	"sort"
	"sync"
	"time"
)

// Calibration: the harness's own fixed piece of reference work, timed
// between the parts of every batch, so that a run can say how slow the
// host was while it measured.
//
// Why: on the shared reference box the floor itself moves. Over 15
// minutes of back-to-back 20 s windows the quiet decile of an identical
// core.Run batch read 27-44 ms (interquartile spread 19 %), in episodes
// of +30-50 % that last minutes — a benchmark whose bound may be at most
// 25 % cannot compare two sets of runs taken ten minutes apart on raw
// wall time. The same windows' quiet-decile calibration time tracks the
// episodes (correlation 0.89-0.94 in log-log against core.Run WAN, LAN
// and cell.Run batches); dividing by it leaves 3-5 % interquartile
// spread. Only memory-bound work is hit (a pure sha256 loop reads the
// same ±1 % throughout), and the simulator is roughly half as sensitive
// as a pure allocate-and-chase loop (fitted log-log slopes 0.43-0.63),
// so the reference work is half of each.
//
// The end-to-end time metrics are therefore reported at reference speed:
// raw value x calRefMs / (this run's quiet-decile calibration time). The
// raw values are printed beside them as *_raw, and the factor as
// bench.slowness. Two commits are always compared on one box, so the
// constant cancels; it only fixes the scale.

// calRefMs is the calibration time of the reference box (2-core shared
// VM, Xeon 2.1 GHz) in a calm hour.
const calRefMs = 5.0

type calNode struct {
	next *calNode
	key  int64
	pad  [4]int64
}

// calSink keeps the reference work observable so it is not optimised away.
var calSink int64

// calibrate runs the reference work once and returns how long it took:
// a memory-bound half (allocate 48-byte nodes into lists that are walked
// and dropped, insert some into a map, sort its keys) and a compute-bound
// half (sha256 over a 4 KB buffer that stays in cache).
func calibrate() time.Duration {
	t0 := time.Now()
	m := make(map[int64]*calNode, 256)
	var head *calNode
	x := int64(12345)
	for i := 0; i < 60000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		n := &calNode{next: head, key: x >> 40}
		head = n
		if i&7 == 0 {
			m[n.key&1023] = n
		}
		if i&1023 == 1023 {
			var s int64
			for p := head; p != nil; p = p.next {
				s += p.key
			}
			calSink += s
			head = nil
		}
	}
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	calSink += keys[0]

	var buf [4096]byte
	for i := 0; i < 700; i++ {
		sum := sha256.Sum256(buf[:])
		buf[i%len(buf)] = sum[0]
	}
	calSink += int64(buf[0])
	return time.Since(t0)
}

// calibrator collects a run's calibration samples. A nil calibrator
// takes none (warm-up batches, smoke-size side sections).
type calibrator struct {
	mu      sync.Mutex
	samples []float64 // ms
}

// sample times the reference work once; sections call it between parts,
// never inside a timed call.
func (c *calibrator) sample() {
	if c == nil {
		return
	}
	d := ms(calibrate())
	c.mu.Lock()
	c.samples = append(c.samples, d)
	c.mu.Unlock()
}

// slowness is how slow the host ran during the run: the quiet-decile
// calibration time over the reference box's. With no samples it is 1.
func (c *calibrator) slowness() (factor float64, n int) {
	if c == nil {
		return 1, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.samples) == 0 {
		return 1, 0
	}
	return quiet(c.samples, lower) / calRefMs, len(c.samples)
}
