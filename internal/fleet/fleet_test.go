package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wtcp/internal/experiment"
)

// quickCampaign is a four-point campaign small enough for unit tests.
func quickCampaign() Campaign {
	return Campaign{
		Sweeps:       []string{experiment.SweepFig7},
		Replications: 2,
		TransferKB:   20,
		PacketSizes:  []int{128, 512},
		BadPeriods:   []string{"1s", "2s"},
	}
}

func TestCampaignValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"no sweeps", `{}`, "names no sweeps"},
		{"unknown sweep", `{"sweeps": ["fig99"]}`, "unknown sweep"},
		{"unknown field", `{"sweeps": ["fig7"], "replicatoins": 3}`, "unknown field"},
		{"tiny packet", `{"sweeps": ["fig7"], "packet_sizes": [8]}`, "40-byte"},
		{"bad duration", `{"sweeps": ["fig7"], "bad_periods": ["soon"]}`, "bad_periods[0]"},
		{"negative reps", `{"sweeps": ["fig7"], "replications": -1}`, "negative"},
		// 200 sizes x 200 bad periods x 2 schemes: refused before the
		// grid is enumerated, as a body of billions of points would be.
		{"oversize grid", `{"sweeps": ["fig9"], "packet_sizes": [` + strings.Repeat("41,", 199) + `41], "bad_periods": ["1s"` +
			strings.Repeat(`, "1s"`, 199) + `]}`, "over 16384 points"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := experiment.ParseCampaign([]byte(tc.json))
			if err == nil {
				t.Fatalf("experiment.ParseCampaign(%s) accepted", tc.json)
			}
			if !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	c, err := experiment.ParseCampaign([]byte(`{"sweeps": ["fig7", "lan"], "replications": 3, "transfer_kb": 20, "bad_periods": ["1s"]}`))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := c.Specs()
	if err != nil {
		t.Fatal(err)
	}
	// fig7: 1 bad x 12 default sizes; lan: 2 schemes x 1 bad.
	if len(specs) != 14 {
		t.Fatalf("specs = %d, want 14", len(specs))
	}
}

// testCoordinator spins up a coordinator with a short lease TTL and
// returns it plus a direct handler-invocation helper.
func testCoordinator(t *testing.T, c Campaign, ttl time.Duration) (*Coordinator, func(path string, req, out any)) {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{
		Campaign:   c,
		LedgerPath: filepath.Join(t.TempDir(), "ledger.json"),
		leaseTTL:   ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	h := coord.Handler()
	call := func(path string, req, out any) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, w.Code, w.Body.String())
		}
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: decode reply: %v", path, err)
		}
	}
	return coord, call
}

// fakeResult fabricates a plausible result post for a leased unit (the
// coordinator never inspects replication contents).
func fakeResult(worker string, u *workUnit) resultRequest {
	return resultRequest{
		Worker: worker,
		Lease:  u.Lease,
		Outcome: experiment.PointOutcome{
			Key:  u.Key,
			Reps: []experiment.RepRecord{{Seed: 0, Values: []uint64{42}}, {Seed: 1, Values: []uint64{43}}},
		},
	}
}

func TestLeaseSettleFlow(t *testing.T) {
	coord, call := testCoordinator(t, quickCampaign(), time.Minute)
	keys := map[string]bool{}
	for i := 0; i < 4; i++ {
		var rep leaseReply
		call("/v1/lease", leaseRequest{Worker: "w1"}, &rep)
		if rep.Done || rep.Unit == nil {
			t.Fatalf("lease %d: done=%v unit=%v, want a grant", i, rep.Done, rep.Unit)
		}
		if keys[rep.Unit.Key] {
			t.Fatalf("key %s granted twice while leased", rep.Unit.Key)
		}
		keys[rep.Unit.Key] = true
		var res resultReply
		call("/v1/result", fakeResult("w1", rep.Unit), &res)
		if !res.Accepted || res.Duplicate {
			t.Fatalf("result %d: %+v, want fresh accept", i, res)
		}
	}
	var rep leaseReply
	call("/v1/lease", leaseRequest{Worker: "w1"}, &rep)
	if !rep.Done {
		t.Fatalf("after settling all units lease reply = %+v, want Done", rep)
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("coordinator not Done after all units settled")
	}
	snap := coord.Snapshot()
	if snap.Settled != 4 || snap.TotalUnits != 4 || snap.Duplicates != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Workers) != 1 || snap.Workers[0].Completed != 4 {
		t.Fatalf("worker accounting = %+v", snap.Workers)
	}
}

func TestDuplicateResultDropped(t *testing.T) {
	_, call := testCoordinator(t, quickCampaign(), time.Minute)
	var rep leaseReply
	call("/v1/lease", leaseRequest{Worker: "w1"}, &rep)
	res := fakeResult("w1", rep.Unit)
	var first, second resultReply
	call("/v1/result", res, &first)
	call("/v1/result", res, &second)
	if !first.Accepted || first.Duplicate {
		t.Fatalf("first post = %+v, want fresh accept", first)
	}
	if !second.Accepted || !second.Duplicate {
		t.Fatalf("second post = %+v, want duplicate drop", second)
	}
}

func TestExpiredLeaseReassignsWithAttribution(t *testing.T) {
	ttl := 100 * time.Millisecond
	coord, call := testCoordinator(t, quickCampaign(), ttl)

	// w1 takes a unit and goes silent (simulating SIGKILL).
	var dead leaseReply
	call("/v1/lease", leaseRequest{Worker: "w1"}, &dead)
	deadKey := dead.Unit.Key

	// Wait for the sweeper to lapse the lease.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap := coord.Snapshot(); snap.Expired > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(ttl / 4)
	}

	// w2 drains the campaign; it must receive the dead worker's unit.
	got := map[string]bool{}
	for {
		var rep leaseReply
		call("/v1/lease", leaseRequest{Worker: "w2"}, &rep)
		if rep.Done {
			break
		}
		if rep.Unit == nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		got[rep.Unit.Key] = true
		var res resultReply
		call("/v1/result", fakeResult("w2", rep.Unit), &res)
		if !res.Accepted || res.Duplicate {
			t.Fatalf("result for %s = %+v", rep.Unit.Key, res)
		}
	}
	if !got[deadKey] {
		t.Fatalf("dead worker's unit %s never reassigned to w2 (got %v)", deadKey, got)
	}
	snap := coord.Snapshot()
	if snap.Settled != 4 {
		t.Fatalf("settled = %d, want 4", snap.Settled)
	}
	var attributed bool
	for _, r := range snap.Reassigned {
		if r.Key == deadKey && r.Worker == "w1" {
			attributed = true
		}
	}
	if !attributed {
		t.Fatalf("reassignment of %s not attributed to w1: %+v", deadKey, snap.Reassigned)
	}
}

func TestLateResultFromExpiredLeaseIsSafe(t *testing.T) {
	ttl := 100 * time.Millisecond
	coord, call := testCoordinator(t, quickCampaign(), ttl)

	var slow leaseReply
	call("/v1/lease", leaseRequest{Worker: "slow"}, &slow)

	// Let the lease lapse, reassign to a fast worker, settle it there.
	deadline := time.Now().Add(5 * time.Second)
	for coord.Snapshot().Expired == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(ttl / 4)
	}
	var again leaseReply
	for {
		call("/v1/lease", leaseRequest{Worker: "fast"}, &again)
		if again.Unit != nil && again.Unit.Key == slow.Unit.Key {
			break
		}
		if again.Unit != nil {
			var res resultReply
			call("/v1/result", fakeResult("fast", again.Unit), &res)
		}
		if again.Done {
			t.Fatal("campaign done before the lapsed unit was regranted")
		}
	}
	var res resultReply
	call("/v1/result", fakeResult("fast", again.Unit), &res)
	if !res.Accepted || res.Duplicate {
		t.Fatalf("fast settle = %+v", res)
	}

	// The slow worker finally posts through its dead lease: must be
	// dropped as a duplicate, not double-recorded.
	var late resultReply
	call("/v1/result", fakeResult("slow", slow.Unit), &late)
	if !late.Accepted || !late.Duplicate {
		t.Fatalf("late post = %+v, want duplicate drop", late)
	}
	snap := coord.Snapshot()
	if snap.Duplicates != 1 || snap.LateResults == 0 {
		t.Fatalf("snapshot counters = duplicates %d lateResults %d", snap.Duplicates, snap.LateResults)
	}
}

func TestRenewExtendsAndRejects(t *testing.T) {
	_, call := testCoordinator(t, quickCampaign(), time.Minute)
	var rep leaseReply
	call("/v1/lease", leaseRequest{Worker: "w1"}, &rep)

	var ren renewReply
	call("/v1/renew", renewRequest{Worker: "w1", Lease: rep.Unit.Lease}, &ren)
	if !ren.OK {
		t.Fatalf("renew of live lease rejected: %+v", ren)
	}

	// Settle the unit; a further renewal must be rejected so the worker
	// abandons the (now pointless) unit.
	var res resultReply
	call("/v1/result", fakeResult("w1", rep.Unit), &res)
	call("/v1/renew", renewRequest{Worker: "w1", Lease: rep.Unit.Lease}, &ren)
	if ren.OK {
		t.Fatal("renew of settled unit's lease accepted")
	}

	// A renewal for a lease that never existed is likewise rejected.
	call("/v1/renew", renewRequest{Worker: "w1", Lease: 9999}, &ren)
	if ren.OK {
		t.Fatal("renew of unknown lease accepted")
	}
}

func TestStragglerStolenAndFirstFinisherWins(t *testing.T) {
	coord, call := testCoordinator(t, quickCampaign(), time.Minute)

	// The straggler takes the first unit and sits on it (renewing, so its
	// lease never expires — this is the hung-but-alive case expiry cannot
	// catch).
	var strag leaseReply
	call("/v1/lease", leaseRequest{Worker: "strag"}, &strag)

	// A fast worker settles the remaining units, building up the settle-
	// time median the steal threshold needs; once at least
	// stealMinSamples units have settled and the pending queue is empty,
	// the straggler's unit (held far over 4x the near-zero median) is
	// offered to the idle fast worker as a stolen grant.
	var stolenUnit *workUnit
	deadline := time.Now().Add(5 * time.Second)
	for stolenUnit == nil {
		if time.Now().After(deadline) {
			t.Fatal("straggler's unit never offered for stealing")
		}
		var rep leaseReply
		call("/v1/lease", leaseRequest{Worker: "fast"}, &rep)
		switch {
		case rep.Done:
			t.Fatal("campaign done while straggler still holds a unit")
		case rep.Unit == nil:
			time.Sleep(10 * time.Millisecond)
		case rep.Unit.Stolen:
			stolenUnit = rep.Unit
		default:
			var res resultReply
			call("/v1/result", fakeResult("fast", rep.Unit), &res)
		}
	}
	if stolenUnit.Key != strag.Unit.Key {
		t.Fatalf("stolen grant = %+v, want straggler's unit %s", stolenUnit, strag.Unit.Key)
	}

	// First finisher (the thief) settles the point...
	var res resultReply
	call("/v1/result", fakeResult("fast", stolenUnit), &res)
	if !res.Accepted || res.Duplicate {
		t.Fatalf("thief settle = %+v", res)
	}
	// ...the straggler's renewal is rejected (abandon signal)...
	var ren renewReply
	call("/v1/renew", renewRequest{Worker: "strag", Lease: strag.Unit.Lease}, &ren)
	if ren.OK {
		t.Fatal("straggler's renewal accepted after thief settled the point")
	}
	// ...and its eventual post is dropped as a duplicate.
	var late resultReply
	call("/v1/result", fakeResult("strag", strag.Unit), &late)
	if !late.Duplicate {
		t.Fatalf("straggler post = %+v, want duplicate drop", late)
	}
	snap := coord.Snapshot()
	if snap.Stolen != 1 || snap.Settled != 4 {
		t.Fatalf("snapshot = stolen %d settled %d, want 1 and 4", snap.Stolen, snap.Settled)
	}
}

func TestFailFastStopsCampaign(t *testing.T) {
	coord, call := testCoordinator(t, quickCampaign(), time.Minute)
	var rep leaseReply
	call("/v1/lease", leaseRequest{Worker: "w1"}, &rep)
	var res resultReply
	call("/v1/result", resultRequest{
		Worker:  "w1",
		Lease:   rep.Unit.Lease,
		Outcome: experiment.PointOutcome{Key: rep.Unit.Key},
		Failure: "protocol bug: oracle rule tahoe-window violated",
	}, &res)
	select {
	case <-coord.Done():
	case <-time.After(time.Second):
		t.Fatal("campaign not stopped by fail-fast result")
	}
	if err := coord.Err(); err == nil || !bytes.Contains([]byte(err.Error()), []byte("oracle rule")) {
		t.Fatalf("Err() = %v, want the worker's failure", err)
	}
	var next leaseReply
	call("/v1/lease", leaseRequest{Worker: "w2"}, &next)
	if !next.Done {
		t.Fatalf("lease after failure = %+v, want Done", next)
	}
}

func TestCoordinatorResumesFromLedger(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.json")
	c := quickCampaign()

	// First campaign: settle two of four units, then stop.
	coord1, err := NewCoordinator(CoordinatorConfig{Campaign: c, LedgerPath: ledger})
	if err != nil {
		t.Fatal(err)
	}
	h := coord1.Handler()
	call := func(path string, req, out any) {
		t.Helper()
		body, _ := json.Marshal(req)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, w.Code, w.Body.String())
		}
		json.Unmarshal(w.Body.Bytes(), out)
	}
	settled := map[string]bool{}
	for i := 0; i < 2; i++ {
		var rep leaseReply
		call("/v1/lease", leaseRequest{Worker: "w1"}, &rep)
		var res resultReply
		call("/v1/result", fakeResult("w1", rep.Unit), &res)
		settled[rep.Unit.Key] = true
	}
	coord1.Close()

	// Second coordinator on the same ledger: only the two unfinished
	// units are dispatchable.
	coord2, call2 := testCoordinatorAt(t, c, ledger)
	granted := map[string]bool{}
	for {
		var rep leaseReply
		call2("/v1/lease", leaseRequest{Worker: "w2"}, &rep)
		if rep.Done {
			break
		}
		if rep.Unit == nil {
			t.Fatalf("unexpected wait with pending units")
		}
		if settled[rep.Unit.Key] {
			t.Fatalf("already-settled unit %s re-dispatched after resume", rep.Unit.Key)
		}
		granted[rep.Unit.Key] = true
		var res resultReply
		call2("/v1/result", fakeResult("w2", rep.Unit), &res)
	}
	if len(granted) != 2 {
		t.Fatalf("resumed campaign dispatched %d units, want 2", len(granted))
	}
	if snap := coord2.Snapshot(); snap.Settled != 4 {
		t.Fatalf("settled = %d, want 4", snap.Settled)
	}
}

// testCoordinatorAt is testCoordinator with an explicit ledger path.
func testCoordinatorAt(t *testing.T, c Campaign, ledger string) (*Coordinator, func(path string, req, out any)) {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{Campaign: c, LedgerPath: ledger})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	h := coord.Handler()
	return coord, func(path string, req, out any) {
		t.Helper()
		body, _ := json.Marshal(req)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, w.Code, w.Body.String())
		}
		json.Unmarshal(w.Body.Bytes(), out)
	}
}

func TestQuarantineAttributedToWorker(t *testing.T) {
	coord, call := testCoordinator(t, quickCampaign(), time.Minute)
	var rep leaseReply
	call("/v1/lease", leaseRequest{Worker: "w7"}, &rep)
	var res resultReply
	call("/v1/result", resultRequest{
		Worker: "w7",
		Lease:  rep.Unit.Lease,
		Outcome: experiment.PointOutcome{
			Key: rep.Unit.Key,
			Quarantine: &experiment.Quarantine{
				Key: rep.Unit.Key, Class: "resource-exhausted", Attempts: 2, Reason: "budget: max events",
			},
		},
	}, &res)
	if !res.Accepted {
		t.Fatalf("quarantine post = %+v", res)
	}
	snap := coord.Snapshot()
	if snap.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", snap.Quarantined)
	}
	qs := coord.ledger.Quarantined()
	if len(qs) != 1 || qs[0].Worker != "w7" {
		t.Fatalf("ledger quarantine = %+v, want attribution to w7", qs)
	}
}
