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
	"testing"
	"time"

	"wtcp/internal/experiment"
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
// TestSweepReplicationsCapped: a sweep campaign's replications are
// bounded like a run's, at the parse: 64 is accepted, 65 refused by
// field name. Parsing starts no runs.
func TestSweepReplicationsCapped(t *testing.T) {
	body := func(n int) []byte {
		return []byte(fmt.Sprintf(`{"campaign":{"sweeps":["fig7"],"replications":%d}}`, n))
	}
	if _, c, err := ParseSweepRequest(body(MaxReplications)); err != nil || c.Replications != MaxReplications {
		t.Errorf("replications %d: campaign %+v, err %v; want it accepted", MaxReplications, c, err)
	}
	if _, _, err := ParseSweepRequest(body(MaxReplications + 1)); err == nil || !strings.Contains(err.Error(), "replications") {
		t.Errorf("replications %d: err %v, want a refusal naming replications", MaxReplications+1, err)
	}
}

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
	for _, tc := range []struct{ body, names string }{
		{`{"campaign":{"sweeps":["fig99"]}}`, "fig99"},
		// The engine runs each replication under its own seed only; a
		// campaign that still names a retry budget is refused by field.
		{`{"campaign":{"sweeps":["fig7"],"retries":1}}`, `unknown field \"retries\"`},
	} {
		if resp, data := post(t, ts, "/v1/sweep", []byte(tc.body)); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), tc.names) {
			t.Errorf("%s: HTTP %d %s, want 400 naming %s", tc.body, resp.StatusCode, data, tc.names)
		}
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

// TestMetricsEngineRowsMatchHealthz: /metrics renders the engine's
// HealthSnapshot, one wtcpd_engine_* row per numeric field named after
// its JSON field, so after three /v1/run misses and no run in between
// each row equals /healthz's field. heap_bytes is sampled live on each
// scrape, so it is only checked present and positive.
func TestMetricsEngineRowsMatchHealthz(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for seed := int64(1); seed <= 3; seed++ {
		if resp, data := post(t, ts, "/v1/run", runBody(seed, 20)); resp.StatusCode != http.StatusOK ||
			resp.Header.Get("X-Wtcpd-Cache") != "miss" {
			t.Fatalf("run seed %d: HTTP %d cache %q: %s", seed, resp.StatusCode, resp.Header.Get("X-Wtcpd-Cache"), data)
		}
	}
	_, data := get(t, ts, "/healthz")
	var fields map[string]any
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatalf("/healthz: %v\n%s", err, data)
	}
	if fields["completed"] != 3.0 {
		t.Fatalf("/healthz completed = %v, want 3", fields["completed"])
	}
	_, data = get(t, ts, "/metrics")
	rows := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if field, engine := strings.CutPrefix(name, "wtcpd_engine_"); ok && engine {
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("/metrics row %q: %v", line, err)
			}
			rows[strings.TrimSuffix(field, "_total")] = v
		}
	}
	want := []string{"completed", "failed", "retried", "quarantined", "events_processed", "active_runs", "median_run_sec", "heap_bytes"}
	if len(rows) != len(want) {
		t.Errorf("/metrics has engine rows %v, want one per field of %v", rows, want)
	}
	for _, field := range want {
		got, ok := rows[field]
		switch {
		case !ok:
			t.Errorf("/metrics has no engine row for %q", field)
		case field == "heap_bytes":
			if got <= 0 {
				t.Errorf("wtcpd_engine_heap_bytes = %v, want positive", got)
			}
		case field == "active_runs":
			if runs, _ := fields[field].([]any); got != float64(len(runs)) {
				t.Errorf("wtcpd_engine_active_runs = %v, /healthz lists %d", got, len(runs))
			}
		case got != fields[field]:
			t.Errorf("wtcpd_engine_%s = %v, /healthz %s = %v", field, got, field, fields[field])
		}
	}
	if rows["events_processed"] == 0 || rows["median_run_sec"] == 0 {
		t.Errorf("engine rows read zero after three runs: %v", rows)
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
	srv := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A Figure 7 sweep at the engine's defaults is advise's option
	// class: it settles every calibration point.
	campaign := []byte(`{"campaign":{"sweeps":["fig7"],"bad_periods":["4s"]}}`)
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
	if len(adv.Table) != len(experiment.PacketSizes) {
		t.Fatalf("advise table has %d entries, want %d: %s", len(adv.Table), len(experiment.PacketSizes), data)
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
	if snap, want := srv.health.Snapshot(), 5*len(experiment.PacketSizes); snap.Completed != uint64(want) {
		t.Errorf("engine ran %d replications total, want %d (advise must not re-run sweep points)", snap.Completed, want)
	}

	// ?bad= is the one spelling: a ?ber= query is a request without it.
	if resp, data := get(t, ts, "/v1/advise?ber=4s"); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(data), "?bad=") || strings.Contains(string(data), "?ber") {
		t.Errorf("advise with ?ber=: HTTP %d %s, want a 400 naming only ?bad=", resp.StatusCode, data)
	}

	if resp, _ := get(t, ts, "/v1/advise"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("advise without ?bad: HTTP %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/advise?bad=banana"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("advise with junk duration: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestSweepAddressedByResolvedGrid: one server answers a campaign and
// its re-spelling ("1000ms" for "1s") under one fingerprint from one
// cache entry, and refuses a repeated axis value or sweep with a 400
// that names it.
func TestSweepAddressedByResolvedGrid(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	campaign := func(fields string) []byte {
		return []byte(`{"campaign":{"replications":1,"transfer_kb":20,` + fields + `}}`)
	}
	var fps []string
	for i, bad := range []string{`"1s"`, `"1000ms"`} {
		resp, body := post(t, ts, "/v1/sweep", campaign(`"sweeps":["fig7"],"packet_sizes":[512],"bad_periods":[`+bad+`]`))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bad_periods [%s]: HTTP %d: %s", bad, resp.StatusCode, body)
		}
		if want := []string{"miss", "hit"}[i]; resp.Header.Get("X-Wtcpd-Cache") != want {
			t.Errorf("bad_periods [%s]: cache %q, want %s", bad, resp.Header.Get("X-Wtcpd-Cache"), want)
		}
		var sr SweepResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, sr.Fingerprint)
	}
	if fps[0] != fps[1] {
		t.Errorf("\"1s\" and \"1000ms\" answered under %s and %s", fps[0][:12], fps[1][:12])
	}
	if entries, _, _ := srv.cache.stats(); entries != 1 {
		t.Errorf("cache holds %d entries, want 1", entries)
	}

	for _, tc := range []struct{ fields, names string }{
		{`"sweeps":["fig7"],"packet_sizes":[512,512]`, "repeats 512"},
		{`"sweeps":["fig7","fig7"],"packet_sizes":[512]`, "repeats fig7"},
		{`"sweeps":["fig7"],"bad_periods":["1s","1000ms"]`, "repeats 1s"},
	} {
		resp, body := post(t, ts, "/v1/sweep", campaign(tc.fields))
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(tc.names)) {
			t.Errorf("%s: HTTP %d %s, want 400 naming %q", tc.fields, resp.StatusCode, body, tc.names)
		}
	}
}
