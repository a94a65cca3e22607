package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (never inside the program under test). Parent is the index
// of the span that caused it, -1 for a root. Req groups the spans of
// one sweep point or HTTP request; the client side sends it to the
// server-side handler wrapper in spanHeader.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Req     string `json:"req,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanHeader carries "<parent span index>/<request id>" from a traced
// client to the handler wrapper, so server-side spans hang under the
// client span that caused them.
const spanHeader = "X-Bench-Span"

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run executes the same code without spans.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noSpan is the handle start returns on a nil tracer.
const noSpan = -1

// start opens a span and returns its index.
func (t *tracer) start(name string, parent int, req string) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, StartNs: now, EndNs: -1})
	return len(t.spans) - 1
}

// startAt opens a span that began at an earlier instant (a span closed
// by a program callback whose start the harness noted itself).
func (t *tracer) startAt(name string, parent int, req string, at time.Time) int {
	id := t.start(name, parent, req)
	if id >= 0 {
		t.mu.Lock()
		t.spans[id].StartNs = at.Sub(t.t0).Nanoseconds()
		t.mu.Unlock()
	}
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// layerTime is a span name's totals over a run.
type layerTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SpanMs float64 `json:"span_ms"`
	SelfMs float64 `json:"self_ms"`
}

// selfTimes computes, per span name, the summed duration and the summed
// self time: a span's duration minus the part of its interval that its
// child spans cover (children of concurrent callers may overlap, so the
// cover is a union, not a sum).
func selfTimes(spans []span) []layerTime {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.EndNs >= s.StartNs {
			kids[s.Parent] = append(kids[s.Parent], iv{s.StartNs, s.EndNs})
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range spans {
		if s.EndNs < s.StartNs {
			continue // never closed
		}
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, upTo int64 = 0, s.StartNs
		for _, k := range ivs {
			a, b := max(k.a, upTo), min(k.b, s.EndNs)
			if b > a {
				covered += b - a
				upTo = b
			}
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.SpanMs += float64(s.EndNs-s.StartNs) / 1e6
		lt.SelfMs += float64(s.EndNs-s.StartNs-covered) / 1e6
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// durations returns the closed spans of one name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= s.StartNs {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// childDurations returns the durations (ms) of the spans whose parent
// span carries parentName — the handler spans under one class of client
// request.
func (t *tracer) childDurations(parentName string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Parent >= 0 && s.EndNs >= s.StartNs && t.spans[s.Parent].Name == parentName {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// selfOf returns, for every span named name that has a closed child,
// its duration minus its children's (ms): what the layer between the
// two span boundaries cost.
func (t *tracer) selfOf(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.EndNs >= s.StartNs && t.spans[s.Parent].Name == name {
			kids[s.Parent] += s.EndNs - s.StartNs
		}
	}
	var out []float64
	for i, k := range kids {
		if s := t.spans[i]; s.EndNs >= s.StartNs {
			out = append(out, float64(s.EndNs-s.StartNs-k)/1e6)
		}
	}
	return out
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Layers   []layerTime `json:"layers"`
	Spans    []span      `json:"spans"`
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span and the per-layer self times to path.
func (t *tracer) write(path, workload string, seed int64) error {
	spans := t.snapshot()
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Layers: selfTimes(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
