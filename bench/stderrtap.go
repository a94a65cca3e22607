package main

import (
	"bufio"
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

// stderrTap counts the straggler lines the engine's Health collectors
// write to standard error. fleet.RunLocal and wtcpd build their own
// collectors, which capture os.Stderr when constructed, so the only
// place to count those lines from outside is the file itself: the tap
// swaps os.Stderr for a pipe, counts and drops straggler lines, and
// forwards everything else to the real standard error.
type stderrTap struct {
	real   *os.File
	w      *os.File
	lines  atomic.Int64
	done   sync.WaitGroup
	active bool
}

const stragglerPrefix = "experiment: straggler:"

func tapStderr() *stderrTap {
	t := &stderrTap{real: os.Stderr}
	r, w, err := os.Pipe()
	if err != nil {
		return t // untapped: lines go to the terminal and count as 0
	}
	t.w, t.active = w, true
	os.Stderr = w
	t.done.Add(1)
	go func() {
		defer t.done.Done()
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), stragglerPrefix) {
				t.lines.Add(1)
				continue
			}
			t.real.WriteString(sc.Text() + "\n")
		}
		r.Close()
	}()
	return t
}

func (t *stderrTap) count() int64 { return t.lines.Load() }

func (t *stderrTap) reset() { t.lines.Store(0) }

// stop restores os.Stderr and waits for the reader to drain.
func (t *stderrTap) stop() {
	if !t.active {
		return
	}
	t.active = false
	os.Stderr = t.real
	t.w.Close()
	t.done.Wait()
}
