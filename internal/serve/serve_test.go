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

	"wtcp/internal/chaos"
	"wtcp/internal/experiment"
	"wtcp/internal/units"
)

// newTestServer opens a Server over dir with test-friendly defaults,
// registered for cleanup.
func newTestServer(t *testing.T, dir string, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		DataDir:         dir,
		Slots:           2,
		QueueDepth:      2,
		DefaultDeadline: time.Minute,
		BreakerCooldown: time.Hour, // cooldowns must be observable, not racy
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// runBody builds a small, fast /v1/run body. transferKB tunes how long
// the execution holds a slot (~10ms per MB on this simulator).
func runBody(seed int64, transferKB int64) []byte {
	return []byte(fmt.Sprintf(
		`{"scenario":{"mean_bad":"4s","transfer_kb":%d,"seed":%d},"replications":1}`, transferKB, seed))
}

func post(t *testing.T, ts *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestRunEndpointCachesAndServesByFingerprint(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := runBody(1, 20)
	resp, fresh := post(t, ts, "/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh run: HTTP %d: %s", resp.StatusCode, fresh)
	}
	if got := resp.Header.Get("X-Wtcpd-Cache"); got != "miss" {
		t.Errorf("fresh run cache header = %q, want miss", got)
	}
	var rr RunResponse
	if err := json.Unmarshal(fresh, &rr); err != nil {
		t.Fatalf("decode run response: %v", err)
	}
	if len(rr.Replications) != 1 || len(rr.Replications[0].Values) != len(rr.Metrics) {
		t.Fatalf("response shape: %+v", rr)
	}
	if rr.Replications[0].Values[0] <= 0 {
		t.Errorf("throughput %v not positive", rr.Replications[0].Values[0])
	}

	resp, cached := post(t, ts, "/v1/run", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Wtcpd-Cache") != "hit" {
		t.Fatalf("repeat run: HTTP %d cache=%q", resp.StatusCode, resp.Header.Get("X-Wtcpd-Cache"))
	}
	if !bytes.Equal(fresh, cached) {
		t.Errorf("cached response differs from fresh:\n%s\nvs\n%s", fresh, cached)
	}

	resp, byFP := get(t, ts, "/v1/result/"+rr.Fingerprint)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(fresh, byFP) {
		t.Errorf("/v1/result: HTTP %d, byte-identical=%v", resp.StatusCode, bytes.Equal(fresh, byFP))
	}
	if srv.met.executed.Load() != 1 {
		t.Errorf("executed %d times, want 1 (cache must absorb repeats)", srv.met.executed.Load())
	}

	if resp, _ := get(t, ts, "/v1/result/not-a-fingerprint"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed fingerprint: HTTP %d, want 400", resp.StatusCode)
	}
	unknown := strings.Repeat("ab", 32)
	if resp, _ := get(t, ts, "/v1/result/"+unknown); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown fingerprint: HTTP %d, want 404", resp.StatusCode)
	}
}

func TestMalformedRequestsAnswer400AndNeverAdmit(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bad := [][]byte{
		nil,
		[]byte(`{`),
		[]byte(`[]`),
		[]byte(`{"scenario":`),
		[]byte(`{"replications":1}`),
		[]byte(`{"scenario":null}`),
		[]byte(`{"scenario":{"preset":"wan"},"typo":1}`),
		[]byte(`{"scenario":{"preset":"mars"}}`),
		[]byte(`{"scenario":{"preset":"wan","packet_size_bytes":-1}}`),
		[]byte(`{"scenario":{"preset":"wan"},"replications":-1}`),
		[]byte(`{"scenario":{"preset":"wan"},"replications":65}`),
		[]byte(`{"scenario":{"preset":"wan"},"deadline_ms":-5}`),
		[]byte(`{"scenario":{"preset":"wan"}} trailing`),
		bytes.Repeat([]byte("x"), maxRequestBody+2),
	}
	for _, body := range bad {
		if resp, data := post(t, ts, "/v1/run", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %.60q: HTTP %d (%s), want 400", body, resp.StatusCode, data)
		}
	}
	if resp, _ := post(t, ts, "/v1/sweep", []byte(`{"campaign":{"sweeps":["fig99"]}}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown sweep: HTTP %d, want 400", resp.StatusCode)
	}
	if got := srv.met.accepted.Load(); got != 0 {
		t.Errorf("malformed requests admitted %d times", got)
	}
	if got := srv.met.badRequests.Load(); got == 0 {
		t.Error("bad-request counter never moved")
	}
}

func TestDeadlineExpiresAs504WithoutTrippingTheClass(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A transfer far too large to finish in 15ms.
	body := []byte(`{"scenario":{"mean_bad":"4s","transfer_kb":500000,"seed":1},"deadline_ms":15}`)
	resp, data := post(t, ts, "/v1/run", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline run: HTTP %d: %s", resp.StatusCode, data)
	}
	if srv.met.deadlines.Load() != 1 {
		t.Errorf("deadline counter = %d, want 1", srv.met.deadlines.Load())
	}
	// The same scenario class must still be admittable: a client's short
	// deadline is not evidence the class exhausts resources.
	resp, data = post(t, ts, "/v1/run", runBody(2, 20))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("class admitted after deadline expiry: HTTP %d: %s", resp.StatusCode, data)
	}
	// A deadline-expired request is not cached: retrying with a longer
	// deadline must be allowed to succeed. (Same fingerprint — deadlines
	// are excluded from identity.)
	if _, ok := srv.cache.get(mustRunFP(t, body)); ok {
		t.Error("deadline-expired answer was cached")
	}
}

// TestHorizonCappedRunIsQuarantined: a transfer the horizon cuts off has
// no throughput — its Summary would divide the whole transfer by the
// horizon — so /v1/run quarantines the request and neither the answer
// nor the result store ever carries a number for it.
func TestHorizonCappedRunIsQuarantined(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := []byte(`{"scenario":{"scheme":"ebsn","packet_size_bytes":576,"mean_bad":"2s","horizon":"10s","seed":1},"replications":2}`)
	resp, data := post(t, ts, "/v1/run", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("horizon-capped run: HTTP %d: %s", resp.StatusCode, data)
	}
	var e errorBody
	if err := json.Unmarshal(data, &e); err != nil || e.Fingerprint == "" ||
		!strings.Contains(e.Error, "quarantined") || !strings.Contains(e.Error, "did not complete") {
		t.Fatalf("horizon-capped run error body: %s (err %v)", data, err)
	}
	if bytes.Contains(data, []byte("replications")) {
		t.Errorf("quarantined run answered with replication values: %s", data)
	}
	if resp, data := get(t, ts, "/v1/result/"+e.Fingerprint); resp.StatusCode == http.StatusOK {
		t.Errorf("/v1/result served a quarantined run: %s", data)
	}
}

func TestResourceExhaustionCoolsTheScenarioClass(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// An event budget no real run fits in: deterministic exhaustion.
	exhausted := []byte(`{"scenario":{"mean_bad":"4s","transfer_kb":20,"seed":1,"budget":{"max_events":50}}}`)
	resp, data := post(t, ts, "/v1/run", exhausted)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("exhausted run: HTTP %d: %s", resp.StatusCode, data)
	}
	var e errorBody
	if err := json.Unmarshal(data, &e); err != nil || e.Class != "resource-exhausted" {
		t.Fatalf("exhausted run error body: %s (err %v)", data, err)
	}

	// The whole class (wan/basic) now cools down at admission...
	resp, data = post(t, ts, "/v1/run", runBody(9, 20))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("class neighbour during cooldown: HTTP %d: %s", resp.StatusCode, data)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 3600 {
		t.Errorf("cooldown Retry-After = %q, want finite [1, 3600]", resp.Header.Get("Retry-After"))
	}
	if srv.met.executed.Load() != 1 {
		t.Errorf("cooldown did not shed at admission: executed %d", srv.met.executed.Load())
	}
	// ...but a different class is unaffected.
	resp, data = post(t, ts, "/v1/run", []byte(`{"scenario":{"mean_bad":"4s","transfer_kb":20,"scheme":"ebsn","seed":1}}`))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("other class during cooldown: HTTP %d: %s", resp.StatusCode, data)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post(t, ts, "/v1/run", runBody(1, 20))
	resp, data := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d", resp.StatusCode)
	}
	var snap experiment.HealthSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("/healthz is not a health snapshot: %v\n%s", err, data)
	}
	if snap.Completed == 0 {
		t.Errorf("health snapshot saw no completed runs: %s", data)
	}

	resp, data = get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	for _, want := range []string{
		"wtcpd_requests_total", "wtcpd_accepted_total", "wtcpd_cache_entries",
		"wtcpd_slots 2", "wtcpd_completed_total 1",
		"wtcpd_journal_entries 0", "wtcpd_cache_segments 1", "wtcpd_cache_disk_bytes ",
		"wtcpd_cache_compactions_total 0", "wtcpd_cache_corrupt_total 0",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Draining flips /healthz to 503 so load balancers stop routing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv.Drain(ctx)
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz while draining: HTTP %d, want 503", resp.StatusCode)
	}
}

func mustRunFP(t *testing.T, body []byte) string {
	t.Helper()
	req, sf, err := ParseRunRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	return RunFingerprint(sf, req.Replications)
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

	faults := &chaos.ServeFaults{MalformedProb: 0.2, DisconnectProb: 0.1, Seed: 42}
	if err := faults.Validate(); err != nil {
		t.Fatal(err)
	}

	const storm = 50
	type report struct {
		fault      chaos.ServeFault
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
		rep := report{fault: faults.Roll(uint64(i)), fp: mustRunFP(t, body)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch rep.fault {
			case chaos.ServeMalformed:
				resp, err := http.Post(ts.URL+"/v1/run", "application/json",
					bytes.NewReader(faults.Corrupt(body, uint64(i))))
				if err == nil {
					rep.status = resp.StatusCode
					resp.Body.Close()
				}
			case chaos.ServeDisconnect:
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
		case rep.fault == chaos.ServeMalformed:
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

// TestSweepDrainResumeWarmStart pins the sweep half of "nothing lost,
// nothing double-run": a drain mid-campaign keeps every settled point
// in the shared ledger, the restarted server re-executes only the
// remainder, and the final response is byte-identical to an
// uninterrupted run.
func TestSweepDrainResumeWarmStart(t *testing.T) {
	campaign := []byte(`{"campaign":{"sweeps":["fig7"],"replications":12,"transfer_kb":2000,"packet_sizes":[256,512,1024,1536],"bad_periods":["4s"]}}`)

	// Reference: the same campaign, uninterrupted.
	ref := newTestServer(t, t.TempDir(), nil)
	tsRef := httptest.NewServer(ref.Handler())
	defer tsRef.Close()
	resp, want := post(t, tsRef, "/v1/sweep", campaign)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference sweep: HTTP %d: %s", resp.StatusCode, want)
	}

	dir := t.TempDir()
	srv := newTestServer(t, dir, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, data := post(t, ts, "/v1/sweep", campaign)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("drained sweep: HTTP %d: %s", resp.StatusCode, data)
		}
	}()
	time.Sleep(30 * time.Millisecond) // let a point or two settle
	dctx, cancel := context.WithCancel(context.Background())
	cancel() // no grace: checkpoint-cancel immediately
	srv.Drain(dctx)
	<-done

	req, c, err := ParseSweepRequest(campaign)
	if err != nil {
		t.Fatal(err)
	}
	_ = req
	fp := SweepFingerprint(c)
	if !srv.jour.has(fp) {
		t.Fatal("drained sweep kept no journal entry")
	}
	srv.Close() // release the point-ledger lock, as a real exit would

	srv2 := newTestServer(t, dir, nil)
	if n := srv2.Resume(); n != 1 {
		t.Fatalf("resumed %d journaled requests, want 1", n)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	deadline := time.Now().Add(30 * time.Second)
	var got []byte
	for {
		resp, data := get(t, ts2, "/v1/result/"+fp)
		if resp.StatusCode == http.StatusOK {
			got = data
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed sweep never finished: HTTP %d: %s", resp.StatusCode, data)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed sweep differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestAdviseRefinesFromSweepPoints pins the satellite: /v1/advise
// answers from the same point ledger as /v1/sweep, so a sweep that
// already measured the sizes makes the advise query free, and its
// table equals the sweep's numbers.
func TestAdviseRefinesFromSweepPoints(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), func(cfg *Config) {
		cfg.Advise = experiment.Options{
			Replications: 1,
			Transfer:     100 * units.KB,
			PacketSizes:  []units.ByteSize{256, 1024},
		}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A sweep over the same option class settles both calibration points.
	campaign := []byte(`{"campaign":{"sweeps":["fig7"],"replications":1,"transfer_kb":100,"packet_sizes":[256,1024],"bad_periods":["4s"]}}`)
	if resp, data := post(t, ts, "/v1/sweep", campaign); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: HTTP %d: %s", resp.StatusCode, data)
	}
	executedBefore := srv.met.executed.Load()

	resp, data := get(t, ts, "/v1/advise?bad=4s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advise: HTTP %d: %s", resp.StatusCode, data)
	}
	var adv AdviseResponse
	if err := json.Unmarshal(data, &adv); err != nil {
		t.Fatal(err)
	}
	if len(adv.Table) != 2 {
		t.Fatalf("advise table has %d entries, want 2: %s", len(adv.Table), data)
	}
	if adv.RecommendedPacketSizeBytes != 256 && adv.RecommendedPacketSizeBytes != 1024 {
		t.Errorf("recommended size %d not in the calibration set", adv.RecommendedPacketSizeBytes)
	}
	best := adv.Table[0]
	for _, e := range adv.Table[1:] {
		if e.ThroughputKbps > best.ThroughputKbps {
			best = e
		}
	}
	if adv.RecommendedPacketSizeBytes != best.PacketSizeBytes {
		t.Errorf("recommended %d but the table maximum is %d", adv.RecommendedPacketSizeBytes, best.PacketSizeBytes)
	}
	// Warm start: the advise request ran zero fresh simulations; both
	// points came from the sweep's ledger. (The request itself executes.)
	if got := srv.met.executed.Load(); got != executedBefore+1 {
		t.Errorf("advise after sweep executed %d new requests, want 1 (warm points)", got-executedBefore)
	}
	if snap := srv.health.Snapshot(); snap.Completed != 2 {
		t.Errorf("engine ran %d replications total, want 2 (advise must not re-run sweep points)", snap.Completed)
	}

	// ?ber= is an accepted alias and hits the same cache entry.
	resp, data2 := get(t, ts, "/v1/advise?ber=4s")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Wtcpd-Cache") != "hit" || !bytes.Equal(data, data2) {
		t.Errorf("?ber alias: HTTP %d cache=%q identical=%v", resp.StatusCode, resp.Header.Get("X-Wtcpd-Cache"), bytes.Equal(data, data2))
	}

	if resp, _ := get(t, ts, "/v1/advise"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("advise without ?bad: HTTP %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/advise?bad=banana"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("advise with junk duration: HTTP %d, want 400", resp.StatusCode)
	}
}
