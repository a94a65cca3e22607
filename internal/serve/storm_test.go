package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wtcp/internal/experiment"
)

// stormFault is the client behaviour TestServeStormDrainResume rolls for
// one request of its storm.
type stormFault int

const (
	stormNone stormFault = iota
	// stormMalformed truncates the request body: the server must answer
	// 400 and never admit the request.
	stormMalformed
	// stormDisconnect abandons the request mid-flight (the client's
	// context ends after the request is sent): accepted work must survive.
	stormDisconnect
)

func (f stormFault) String() string {
	return [...]string{"none", "malformed", "disconnect"}[f]
}

// stormRoll decides the fault for request i from (seed, i) alone, with no
// shared generator, so concurrent clients roll their own requests and a
// rerun repeats the schedule: one uniform draw, malformed with
// probability 0.2, else a disconnect with probability 0.1.
func stormRoll(seed int64, i uint64) stormFault {
	const malformedProb, disconnectProb = 0.2, 0.1
	x := experiment.Splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + i + 1)
	u := float64(x>>11) / (1 << 53)
	switch {
	case u < malformedProb:
		return stormMalformed
	case u < malformedProb+disconnectProb:
		return stormDisconnect
	default:
		return stormNone
	}
}

// stormCorrupt renders the malformed body of request i: a strict prefix,
// which for a JSON document is always undecodable (the top-level value is
// left unterminated), cut at a point that varies with i so the storm
// covers different failure points in the decoder.
func stormCorrupt(body []byte, seed int64, i uint64) []byte {
	x := experiment.Splitmix64(uint64(seed) ^ (i+1)*0xbf58476d1ce4e5b9)
	if len(body) < 2 {
		return []byte("{")
	}
	cut := 1 + int(x%uint64(len(body)-1))
	return append([]byte(nil), body[:cut]...)
}

// TestStormCorruptUndecodable pins the property the storm relies on: a
// corrupted body never decodes as valid JSON, for any request index, or
// a "malformed" request could silently admit.
func TestStormCorruptUndecodable(t *testing.T) {
	bodies := [][]byte{
		[]byte(`{"scenario":{"preset":"wan","mean_bad":"4s"},"replications":3}`),
		[]byte(`{"campaign":{"sweeps":["fig7"]}}`),
		[]byte(`{}`),
		[]byte(`{"a":1}`),
		[]byte(`x`),
		nil,
	}
	for _, body := range bodies {
		for i := uint64(0); i < 64; i++ {
			bad := stormCorrupt(body, 11, i)
			var v any
			if json.Unmarshal(bad, &v) == nil {
				t.Fatalf("stormCorrupt(%q, %d) = %q decodes as valid JSON", body, i, bad)
			}
			if len(body) >= 2 && len(bad) >= len(body) {
				t.Fatalf("stormCorrupt(%q, %d) = %q is not a strict prefix", body, i, bad)
			}
		}
	}
}

// TestServeStormDrainResume is the acceptance test the tentpole names:
// a seeded 50-request storm with chaotic clients against slots=2, a
// SIGTERM-style drain mid-storm, and a restart on the same data
// directory. Every accepted request either completed or was journaled
// and completes after resume — nothing is silently lost — while every
// rejection carried a finite Retry-After, and a repeat request is
// served from cache byte-identical to the fresh run.
func TestServeStormDrainResume(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, dir, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const storm, seed = 50, 42
	// The schedule is a pure function of (seed, request index): pinned
	// here, so a change to the roll cannot quietly change what the storm
	// exercises.
	var malformed, disconnect []int
	for i := 0; i < storm; i++ {
		switch stormRoll(seed, uint64(i)) {
		case stormMalformed:
			malformed = append(malformed, i)
		case stormDisconnect:
			disconnect = append(disconnect, i)
		}
	}
	if got, want := fmt.Sprint(malformed), "[1 3 7 17 21 24 27 36 40 42 45 47 49]"; got != want {
		t.Fatalf("malformed requests %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(disconnect), "[0 9 16 20 26 33 39 41 43]"; got != want {
		t.Fatalf("disconnecting requests %s, want %s", got, want)
	}

	type report struct {
		fault      stormFault
		fp         string
		status     int
		body       []byte
		retryAfter string
	}
	reports := make([]report, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		i := i
		// 10 distinct experiments, ~60ms of work each: enough overlap to
		// exercise single-flight joins, 429 shedding, and the drain.
		body := runBody(int64(i%10+1), 5000)
		rep := report{fault: stormRoll(seed, uint64(i)), fp: mustRunFP(t, body)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch rep.fault {
			case stormMalformed:
				resp, err := http.Post(ts.URL+"/v1/run", "application/json",
					bytes.NewReader(stormCorrupt(body, seed, uint64(i))))
				if err == nil {
					rep.status = resp.StatusCode
					resp.Body.Close()
				}
			case stormDisconnect:
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
				req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run", bytes.NewReader(body))
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					resp.Body.Close()
				}
				cancel()
				rep.status = -1 // walked away; nothing to assert on the wire
			default:
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
				rep.status = resp.StatusCode
				rep.retryAfter = resp.Header.Get("Retry-After")
				rep.body, _ = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			reports[i] = rep
		}()
	}

	// Drain mid-storm: once the storm has demonstrably made progress (a
	// fixed sleep would drain before anything completed under -race,
	// where every run is several times slower), checkpoint-cancel with a
	// short grace.
	progress := time.Now().Add(10 * time.Second)
	for srv.health.Snapshot().Completed < 4 && time.Now().Before(progress) {
		time.Sleep(5 * time.Millisecond)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	srv.Drain(dctx)
	cancel()
	wg.Wait()

	journaled := map[string]bool{}
	for _, p := range srv.jour.list() {
		journaled[p.Fingerprint] = true
	}

	completedFP := map[string][]byte{}
	rejects := 0
	for i, rep := range reports {
		switch {
		case rep.fault == stormMalformed:
			if rep.status != http.StatusBadRequest {
				t.Errorf("request %d (malformed): HTTP %d, want 400", i, rep.status)
			}
		case rep.status == -1: // disconnected client: no wire contract
		case rep.status == http.StatusOK:
			if prev, ok := completedFP[rep.fp]; ok && !bytes.Equal(prev, rep.body) {
				t.Errorf("request %d: two 200s for %s differ", i, rep.fp[:12])
			}
			completedFP[rep.fp] = rep.body
		case rep.status == http.StatusTooManyRequests, rep.status == http.StatusServiceUnavailable:
			rejects++
			if ra, err := strconv.Atoi(rep.retryAfter); err != nil || ra < 1 || ra > 3600 {
				t.Errorf("request %d: HTTP %d with Retry-After %q, want finite [1, 3600]", i, rep.status, rep.retryAfter)
			}
			// Zero lost: a 503 whose work was accepted must be journaled
			// (the body says so); a 429/queue-shed 503 must not be.
			var e errorBody
			if json.Unmarshal(rep.body, &e) == nil && strings.Contains(e.Error, "journaled") && !journaled[rep.fp] && completedFP[rep.fp] == nil {
				t.Errorf("request %d: told client it was journaled but no journal entry or cached result for %s", i, rep.fp[:12])
			}
		default:
			t.Errorf("request %d (fault %v): unexpected HTTP %d: %s", i, rep.fault, rep.status, rep.body)
		}
	}
	if len(completedFP) == 0 {
		t.Error("storm completed nothing; drain came too early to mean anything")
	}
	if rejects == 0 {
		t.Error("50 simultaneous requests against 2+2 capacity produced zero 429/503 rejections")
	}
	t.Logf("storm: %d fingerprints completed, %d rejects, %d journaled", len(completedFP), rejects, len(journaled))

	// Restart on the same data directory: journaled work resumes and
	// completes without re-running anything already cached. (Close the
	// old instance first — a real restart ends the process, releasing
	// its ledger locks.)
	srv.Close()
	srv2 := newTestServer(t, dir, nil)
	resumed := srv2.Resume()
	if resumed != len(journaled) {
		t.Errorf("resumed %d, want %d (one per journal entry)", resumed, len(journaled))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		entries := srv2.jour.entries()
		if entries == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never drained: %d entries left", entries)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv2.met.executed.Load(); got != uint64(resumed) {
		t.Errorf("restart executed %d requests, want exactly the %d resumed (zero double-run)", got, resumed)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	for fp := range journaled {
		resp, data := get(t, ts2, "/v1/result/"+fp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("journaled %s after resume: HTTP %d: %s", fp[:12], resp.StatusCode, data)
		}
	}

	// Byte-identity across lives: a fingerprint completed by the first
	// server, recomputed from scratch on a cold server, matches exactly.
	cold := newTestServer(t, t.TempDir(), nil)
	ts3 := httptest.NewServer(cold.Handler())
	defer ts3.Close()
	for fp, want := range completedFP {
		resp, data := get(t, ts2, "/v1/result/"+fp)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(data, want) {
			t.Errorf("%s differs across server lives", fp[:12])
		}
		// One cold recompute is enough to pin determinism.
		var rr RunResponse
		if err := json.Unmarshal(want, &rr); err != nil {
			t.Fatal(err)
		}
		seed := rr.Replications[0].Seed
		resp, data = post(t, ts3, "/v1/run", runBody(seed, 5000))
		if resp.StatusCode != http.StatusOK || !bytes.Equal(data, want) {
			t.Errorf("cold recompute of %s not byte-identical (HTTP %d)", fp[:12], resp.StatusCode)
		}
		break
	}
}
