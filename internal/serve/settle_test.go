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

	"wtcp/internal/core"
	"wtcp/internal/experiment"
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
	waitParked(t, "(*admission).acquire", 1)

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

// waitParked returns once n goroutines are parked in a select in the
// function frame names (admission.acquire's wait for a slot, say), so
// what the test does next happens while they wait.
func waitParked(t *testing.T, frame string, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select]") && strings.Contains(g, frame) {
				parked++
			}
		}
		if parked >= n {
			return
		}
	}
	t.Fatalf("%d goroutine(s) never parked in %s", n, frame)
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
// paper's Fig 7 + 8 grid, an advise query and a sweep with a
// quarantined point answer byte-identically on a one-slot and a
// two-slot server.
func TestSweepSameBytesOnOneAndTwoSlots(t *testing.T) {
	campaign := []byte(`{"campaign":{"sweeps":["fig7","fig8"],"replications":1,"base_seed":3}}`)
	// The 128-byte point needs over 4 000 events at any seed, the others
	// under 2 000 (see TestSweepQuarantinesExhaustedPoint): it is
	// quarantined between the others.
	quarantining := []byte(`{"campaign":{"sweeps":["fig7"],"replications":2,"transfer_kb":50,` +
		`"packet_sizes":[1536,128,1024,768],"bad_periods":["1s"],"budget":{"max_events":3000}}}`)
	for _, tc := range []struct {
		name, method, path string
		body               []byte
		holds              string // the answer must hold this
	}{
		{"sweep", http.MethodPost, "/v1/sweep", campaign, `"key"`},
		{"advise", http.MethodGet, "/v1/advise?bad=2s", nil, `"recommended_packet_size_bytes"`},
		{"supervised sweep", http.MethodPost, "/v1/sweep", quarantining, `size=128","quarantine"`},
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
	c, err := experiment.ParseCampaign([]byte(manifest))
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

// TestSweepQuarantinesExhaustedPoint: a manifest names no failure
// policy, and a sweep whose grid holds a budget-exhausted point answers
// 200 with that point's quarantine and every other point's
// replications, at one slot and at two, every point in the ledger. The
// smallest packet size needs the most events, so a ceiling of 3 000
// events exhausts it (it needs over 4 000 at any seed) and spares the
// larger ones (under 2 000); the sizes are listed largest first, so the
// quarantine is the last point.
func TestSweepQuarantinesExhaustedPoint(t *testing.T) {
	campaign := []byte(`{"campaign":{"sweeps":["fig7"],"replications":1,"transfer_kb":50,` +
		`"packet_sizes":[1536,1024,768,128],"bad_periods":["1s"],"budget":{"max_events":3000}}}`)
	code1, one, _ := settleOnSlots(t, 1, http.MethodPost, "/v1/sweep", campaign)
	code2, two, srv := settleOnSlots(t, 2, http.MethodPost, "/v1/sweep", campaign)
	if code1 != http.StatusOK || !bytes.Equal(one, two) {
		t.Fatalf("one slot: HTTP %d %s\ntwo slots: HTTP %d %s\nwant the same 200", code1, one, code2, two)
	}
	var resp SweepResponse
	if err := json.Unmarshal(one, &resp); err != nil {
		t.Fatal(err)
	}
	_, c, err := ParseSweepRequest(campaign)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := c.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != len(specs) {
		t.Fatalf("%d points answered, want %d", len(resp.Points), len(specs))
	}
	last := len(specs) - 1
	for i, p := range resp.Points {
		if k, _ := specs[i].Key(); p.Key != k {
			t.Errorf("point %d is %s, want %s", i, p.Key, k)
		}
		q := p.Quarantine
		if i == last {
			if q == nil || q.Class != string(core.ClassResourceExhausted) || !strings.Contains(q.Reason, "events budget") || p.Replications != nil {
				t.Errorf("last point %+v, want an events-budget quarantine", p)
			}
		} else if q != nil || len(p.Replications) != 1 {
			t.Errorf("point %d %+v, want its one replication", i, p)
		}
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
	for _, p := range resp.Points {
		if !led.Has(p.Key) {
			t.Errorf("point %s is not in the ledger", p.Key)
		}
	}
	if qs := led.Quarantined(); len(qs) != 1 || qs[0].Key != resp.Points[last].Key {
		t.Errorf("ledger quarantines %+v, want the last point's alone", qs)
	}
}

// TestBudgetedQuarantineAnswersOnlyItsBudget: a quarantine a sweep's
// own budget forced holds only under that budget. After a budgeted
// sweep quarantines its 128-byte point, the shared point ledger settles
// the point for the budgeted caller, not the unbudgeted one, and the
// answer is not cached; the same grid with no budget is a miss that
// measures the point, and the budgeted repeat then gets that
// measurement, as a CLI resume does.
func TestBudgetedQuarantineAnswersOnlyItsBudget(t *testing.T) {
	grid := `"sweeps":["fig7"],"replications":1,"transfer_kb":50,"packet_sizes":[1536,128],"bad_periods":["1s"]`
	budgeted := []byte(`{"campaign":{` + grid + `,"budget":{"max_events":3000}}}`)
	plain := []byte(`{"campaign":{` + grid + `}}`)
	dir := t.TempDir()
	srv := newTestServer(t, dir, nil)
	ts := httptest.NewServer(srv.Handler())
	answer := func(body []byte, wantCache string) SweepResponse {
		t.Helper()
		resp, data := post(t, ts, "/v1/sweep", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Wtcpd-Cache") != wantCache {
			t.Fatalf("HTTP %d, cache %q, want 200 %s: %s", resp.StatusCode, resp.Header.Get("X-Wtcpd-Cache"), wantCache, data)
		}
		var out SweepResponse
		if err := json.Unmarshal(data, &out); err != nil || len(out.Points) != 2 {
			t.Fatalf("%v: %s", err, data)
		}
		return out
	}
	first := answer(budgeted, "miss")
	if q := first.Points[1].Quarantine; q == nil || q.Class != string(core.ClassResourceExhausted) {
		t.Fatalf("the budgeted sweep's 128-byte point carries %+v, want its events-budget quarantine", q)
	}
	ts.Close()
	srv.Close()
	// Each fresh server opens the class's ledger under the caller's
	// options, which are what its Has answers for.
	for _, c := range []struct {
		body    []byte
		settled bool
	}{{budgeted, true}, {plain, false}} {
		_, camp, err := ParseSweepRequest(c.body)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := camp.Options()
		if err != nil {
			t.Fatal(err)
		}
		probe := newTestServer(t, dir, nil)
		led, err := probe.pointLedger(opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := led.Has(first.Points[1].Key); got != c.settled {
			t.Errorf("budget %+v: the quarantine settles the point: %v, want %v", opt.RunBudget, got, c.settled)
		}
		probe.Close()
	}
	srv = newTestServer(t, dir, nil)
	ts = httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i, p := range answer(plain, "miss").Points {
		if p.Quarantine != nil || len(p.Replications) != 1 {
			t.Errorf("unbudgeted point %d %+v, want its one measured replication", i, p)
		}
	}
	if p := answer(budgeted, "hit").Points[1]; p.Quarantine != nil || len(p.Replications) != 1 {
		t.Errorf("the budgeted repeat answered %+v, want the measured point", p)
	}
}

// TestCoalescedSweepAnswersOnlyItsBudget: a request that arrives while
// the same grid runs under another budget joins that flight, but takes
// its answer only if the answer holds under any budget. A budgeted
// sweep is held in the queue behind the one run slot, the same grid
// arrives with no budget and waits on that flight; once the slot frees,
// the budgeted answer carries the 128-byte point's quarantine and the
// unbudgeted one measures it, on a second execution.
func TestCoalescedSweepAnswersOnlyItsBudget(t *testing.T) {
	grid := `"sweeps":["fig7"],"replications":1,"transfer_kb":50,"packet_sizes":[1536,128],"bad_periods":["1s"]`
	budgeted := []byte(`{"campaign":{` + grid + `,"budget":{"max_events":3000}}}`)
	plain := []byte(`{"campaign":{` + grid + `}}`)
	srv := newTestServer(t, t.TempDir(), func(cfg *Config) { cfg.Slots = 1 })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hold, err := srv.adm.acquire(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	answers := make([]chan SweepResponse, 2)
	for i, body := range [][]byte{budgeted, plain} {
		answers[i] = make(chan SweepResponse, 1)
		go func() {
			var out SweepResponse
			defer func() { answers[i] <- out }()
			resp, data := post(t, ts, "/v1/sweep", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("HTTP %d, want 200: %s", resp.StatusCode, data)
			} else if err := json.Unmarshal(data, &out); err != nil || len(out.Points) != 2 {
				t.Errorf("%v: %s", err, data)
			}
		}()
		if i == 0 {
			waitParked(t, "(*admission).acquire", 1)
		}
	}
	waitParked(t, "(*Server).awaitFlight", 2)
	hold()
	if first := <-answers[0]; len(first.Points) == 2 {
		if q := first.Points[1].Quarantine; q == nil || q.Class != string(core.ClassResourceExhausted) {
			t.Errorf("the budgeted sweep's 128-byte point carries %+v, want its events-budget quarantine", q)
		}
	}
	for i, p := range (<-answers[1]).Points {
		if p.Quarantine != nil || len(p.Replications) != 1 {
			t.Errorf("unbudgeted point %d %+v, want its one measured replication", i, p)
		}
	}
	if got := srv.met.executed.Load(); got != 2 {
		t.Errorf("the two budgets executed %d times, want 2", got)
	}
}
