package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"wtcp/internal/experiment"
	"wtcp/internal/fleet"
)

// TestQueuedRequestBeatsBorrower pins the admission rule a sweep's
// borrowed slots rely on: a slot released while a request waits in the
// queue goes to that request, never to a non-blocking tryAcquire that
// runs after the release.
func TestQueuedRequestBeatsBorrower(t *testing.T) {
	a := newAdmission(2, 2)
	own, err := a.acquire(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer own()
	borrowed, ok := a.tryAcquire()
	if !ok {
		t.Fatal("tryAcquire found no free slot on an idle admission")
	}
	if _, ok := a.tryAcquire(); ok {
		t.Fatal("tryAcquire claimed a third slot of two")
	}

	admitted := make(chan func())
	go func() {
		release, err := a.acquire(context.Background(), false)
		if err != nil {
			t.Error(err)
			close(admitted)
			return
		}
		admitted <- release
	}()
	waitBlockedInAcquire(t)

	borrowed()
	if _, ok := a.tryAcquire(); ok {
		t.Fatal("a borrower took the slot released while a request waited in the queue")
	}
	release := <-admitted
	if release == nil {
		return
	}
	if a.inFlight() != 2 || a.queued() != 0 {
		t.Errorf("after the hand-over: %d slots held, %d queued; want 2 and 0", a.inFlight(), a.queued())
	}
	release()
	if r, ok := a.tryAcquire(); !ok {
		t.Error("tryAcquire found no free slot once the queue was empty")
	} else {
		r()
	}
}

// waitBlockedInAcquire returns once some goroutine is parked in
// admission.acquire's wait for a slot, so the release that follows
// happens while it is a blocked channel sender.
func waitBlockedInAcquire(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select]") && strings.Contains(g, "(*admission).acquire") {
				return
			}
		}
	}
	t.Fatal("the queued request never blocked in acquire")
}

// settleOnSlots answers one request on a fresh server with the given
// number of run slots.
func settleOnSlots(t *testing.T, slots int, method, path string, body []byte) (int, []byte, *Server) {
	t.Helper()
	srv := newTestServer(t, t.TempDir(), func(cfg *Config) { cfg.Slots = slots })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var resp *http.Response
	var data []byte
	if method == http.MethodGet {
		resp, data = get(t, ts, path)
	} else {
		resp, data = post(t, ts, path, body)
	}
	if resp.Header.Get("X-Wtcpd-Cache") == "hit" {
		t.Fatalf("%s on a fresh server answered from the cache", path)
	}
	return resp.StatusCode, data, srv
}

// TestSweepSameBytesOnOneAndTwoSlots: settling a campaign's units on
// every free slot changes when they run, not what the answer is. The
// paper's Fig 7 + 8 grid, an advise query and a supervised sweep with a
// quarantined point answer byte-identically on a one-slot and a
// two-slot server.
func TestSweepSameBytesOnOneAndTwoSlots(t *testing.T) {
	campaign := []byte(`{"campaign":{"sweeps":["fig7","fig8"],"replications":1,"base_seed":3}}`)
	// The 128-byte point needs over 4 000 events at any seed, the others
	// under 2 000 (see TestSweepFirstErrorInSpecOrder): supervised, it is
	// quarantined between the others.
	supervised := []byte(`{"campaign":{"sweeps":["fig7"],"replications":2,"transfer_kb":50,"retries":-1,` +
		`"packet_sizes":[1536,128,1024,768],"bad_periods":["1s"],"budget":{"max_events":3000},"supervise":true}}`)
	for _, tc := range []struct {
		name, method, path string
		body               []byte
		holds              string // the answer must hold this
	}{
		{"sweep", http.MethodPost, "/v1/sweep", campaign, `"key"`},
		{"advise", http.MethodGet, "/v1/advise?bad=2s", nil, `"recommended_packet_size_bytes"`},
		{"supervised sweep", http.MethodPost, "/v1/sweep", supervised, `size=128","quarantine"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code1, one, _ := settleOnSlots(t, 1, tc.method, tc.path, tc.body)
			code2, two, _ := settleOnSlots(t, 2, tc.method, tc.path, tc.body)
			if code1 != http.StatusOK || code2 != http.StatusOK {
				t.Fatalf("HTTP %d / %d:\n%s\n%s", code1, code2, one, two)
			}
			if !bytes.Equal(one, two) {
				t.Fatalf("one slot and two slots answer differently:\n%s\nvs\n%s", one, two)
			}
			if !bytes.Contains(one, []byte(tc.holds)) {
				t.Fatalf("the answer does not hold %s: %s", tc.holds, one)
			}
		})
	}
	var resp SweepResponse
	_, body, _ := settleOnSlots(t, 2, http.MethodPost, "/v1/sweep", campaign)
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 96 {
		t.Errorf("Fig 7 + 8 sweep answered %d points, want 96", len(resp.Points))
	}
}

// TestSweepMatchesSequentialEngine: a campaign sent to /v1/sweep carries,
// point by point, the replication values the sequential engine computes
// for the same figures at one worker, bit for bit, on a one-slot and a
// two-slot server alike. The reference is experiment.Fig7 and Fig8 at
// Workers 1, read back from the checkpoint they write.
func TestSweepMatchesSequentialEngine(t *testing.T) {
	manifest := `{"sweeps":["fig7","fig8"],"replications":2,"base_seed":5,"transfer_kb":40,"packet_sizes":[256,1024],"bad_periods":["1s","4s"]}`
	c, err := fleet.ParseCampaign([]byte(manifest))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := c.Options()
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 1
	opt.Checkpoint = filepath.Join(t.TempDir(), "sequential.ckpt")
	if _, err := experiment.Fig7(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.Fig8(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	led, err := experiment.OpenLedger(opt.Checkpoint, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	specs, err := c.Specs()
	if err != nil {
		t.Fatal(err)
	}

	for _, slots := range []int{1, 2} {
		code, body, _ := settleOnSlots(t, slots, http.MethodPost, "/v1/sweep", []byte(`{"campaign":`+manifest+`}`))
		if code != http.StatusOK {
			t.Fatalf("%d slots: HTTP %d: %s", slots, code, body)
		}
		var resp SweepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Points) != len(specs) || len(specs) != 8 {
			t.Fatalf("%d slots: %d points for %d specs, want 8", slots, len(resp.Points), len(specs))
		}
		for i, p := range resp.Points {
			key, _ := specs[i].Key()
			want, ok := led.Reps(key)
			if p.Key != key || !ok || len(p.Replications) != len(want) {
				t.Fatalf("%d slots: point %d is %s with %d reps; the engine has %s with %d (found %v)",
					slots, i, p.Key, len(p.Replications), key, len(want), ok)
			}
			for r, rep := range p.Replications {
				got := make([]uint64, len(rep.Values))
				for k, v := range rep.Values {
					got[k] = math.Float64bits(v)
				}
				if rep.Seed != want[r].Seed || !slices.Equal(got, want[r].Values) {
					t.Errorf("%d slots: %s rep %d is seed %d %x; the engine's is seed %d %x",
						slots, key, r, rep.Seed, got, want[r].Seed, want[r].Values)
				}
			}
		}
	}
}

// TestSweepFirstErrorInSpecOrder: when points fail, the answer is the
// failure a one-at-a-time loop would hit first, and every point before
// it is in the ledger. The smallest packet size needs the most events,
// so a ceiling of 3 000 events fails it (it needs over 4 000 at any
// seed) and spares the larger ones (under 2 000); the sizes are listed
// largest first, so the failure is the last point.
func TestSweepFirstErrorInSpecOrder(t *testing.T) {
	campaign := []byte(`{"campaign":{"sweeps":["fig7"],"replications":1,"transfer_kb":50,"retries":-1,` +
		`"packet_sizes":[1536,1024,768,128],"bad_periods":["1s"],"budget":{"max_events":3000}}}`)
	code1, one, _ := settleOnSlots(t, 1, http.MethodPost, "/v1/sweep", campaign)
	code2, two, srv := settleOnSlots(t, 2, http.MethodPost, "/v1/sweep", campaign)
	if code1 != http.StatusUnprocessableEntity || !bytes.Equal(one, two) {
		t.Fatalf("one slot: HTTP %d %s\ntwo slots: HTTP %d %s\nwant the same 422", code1, one, code2, two)
	}
	_, c, err := ParseSweepRequest(campaign)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := c.Specs()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, s := range specs {
		k, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	last := len(keys) - 1
	if !strings.Contains(string(two), keys[last]) {
		t.Fatalf("error does not name %s, the last point in spec order: %s", keys[last], two)
	}
	srv.Close()
	opt, err := c.Options()
	if err != nil {
		t.Fatal(err)
	}
	led, err := newTestServer(t, srv.cfg.DataDir, nil).pointLedger(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if got, want := led.Has(k), i < last; got != want {
			t.Errorf("point %d (%s) in the ledger: %v, want %v", i, k, got, want)
		}
	}
}
