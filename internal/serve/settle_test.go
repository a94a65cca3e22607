package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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

// TestSweepSameBytesOnOneAndTwoSlots: settling a campaign's points on
// every free slot changes when they run, not what the answer is. The
// paper's Fig 7 + 8 grid and an advise query answer byte-identically
// on a one-slot and a two-slot server.
func TestSweepSameBytesOnOneAndTwoSlots(t *testing.T) {
	campaign := []byte(`{"campaign":{"sweeps":["fig7","fig8"],"replications":1,"base_seed":3}}`)
	for _, tc := range []struct {
		name, method, path string
		body               []byte
	}{
		{"sweep", http.MethodPost, "/v1/sweep", campaign},
		{"advise", http.MethodGet, "/v1/advise?bad=2s", nil},
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

// TestOnFreeSlotsFirstErrorInIndexOrder: when jobs fail, the answer is
// the failure a one-at-a-time loop would hit first. A later job that
// fails first cancels the jobs after it but lets the ones before it
// finish — one of which may fail and become the answer — and no job
// past the failure starts.
func TestOnFreeSlotsFirstErrorInIndexOrder(t *testing.T) {
	errEarly, errLate := errors.New("early"), errors.New("late")
	for _, tc := range []struct {
		name  string
		early error // what job 0 returns once job 1 has failed
	}{
		{"earlier job succeeds", nil},
		{"earlier job fails later", errEarly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Server{adm: newAdmission(3, 0)}
			lateFailed := make(chan struct{})
			var canceled0, canceled2 atomic.Bool
			var started [5]atomic.Bool
			err := s.onFreeSlots(context.Background(), 5, 3, func(ctx context.Context, i int) error {
				started[i].Store(true)
				switch i {
				case 0:
					<-lateFailed
					for deadline := time.Now().Add(10 * time.Second); !canceled2.Load() && time.Now().Before(deadline); {
						time.Sleep(time.Millisecond)
					}
					canceled0.Store(ctx.Err() != nil)
					return tc.early
				case 1:
					close(lateFailed)
					return errLate
				case 2:
					<-ctx.Done()
					canceled2.Store(true)
					return ctx.Err()
				}
				return nil
			})
			want := errLate
			if tc.early != nil {
				want = tc.early
			}
			if err != want {
				t.Errorf("onFreeSlots = %v, want %v", err, want)
			}
			if canceled0.Load() || !canceled2.Load() {
				t.Errorf("job 0 canceled: %v, job 2 canceled: %v; want only the job after the failure canceled", canceled0.Load(), canceled2.Load())
			}
			for i := 3; i < 5; i++ {
				if started[i].Load() {
					t.Errorf("job %d started after job 1 failed", i)
				}
			}
			if n := s.adm.inFlight(); n != 0 {
				t.Errorf("%d borrowed slots still held", n)
			}
		})
	}
}

// TestOnFreeSlotsWidthOne: a width of 1 is the one-at-a-time loop — the
// same code path, never two jobs at once and never a borrowed slot.
func TestOnFreeSlotsWidthOne(t *testing.T) {
	s := &Server{adm: newAdmission(2, 0)}
	var running, peak atomic.Int32
	var order []int
	err := s.onFreeSlots(context.Background(), 8, 1, func(ctx context.Context, i int) error {
		if n := running.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		if s.adm.inFlight() != 0 {
			t.Error("a width-1 run borrowed a slot")
		}
		order = append(order, i)
		running.Add(-1)
		return nil
	})
	if err != nil || peak.Load() != 1 || len(order) != 8 {
		t.Fatalf("err %v, peak concurrency %d, %d jobs run; want nil, 1, 8", err, peak.Load(), len(order))
	}
	for i, j := range order {
		if i != j {
			t.Fatalf("jobs ran in order %v", order)
		}
	}
}
