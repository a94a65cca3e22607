package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wtcp/internal/experiment"
)

// withNext is a result post that asks for the next grant.
func withNext(r resultRequest) resultRequest {
	r.Next = true
	return r
}

// TestResultPostCarriesIdempotentGrant: a result post with next gets the
// worker's next unit in its reply, a duplicate or retry of the same post
// gets that same grant back (never a second lease), and a post without
// next gets no grant.
func TestResultPostCarriesIdempotentGrant(t *testing.T) {
	coord, call := testCoordinator(t, quickCampaign(), time.Minute)
	var first leaseReply
	call("/v1/lease", leaseRequest{Worker: "w1"}, &first)
	post := withNext(fakeResult("w1", first.Unit))

	var res, dup resultReply
	call("/v1/result", post, &res)
	if !res.Accepted || res.Duplicate || res.Next == nil || res.Next.Unit == nil {
		t.Fatalf("result post with next = %+v, want a fresh accept carrying a unit", res)
	}
	call("/v1/result", post, &dup)
	if !dup.Duplicate || dup.Next == nil || dup.Next.Unit == nil || *dup.Next.Unit != *res.Next.Unit {
		t.Fatalf("duplicate post = %+v (next %+v), want the same grant %+v", dup, dup.Next, res.Next.Unit)
	}
	if snap := coord.Snapshot(); snap.Leased != 1 || snap.Settled != 1 {
		t.Fatalf("after a post and its duplicate: %d leased, %d settled; want 1 and 1", snap.Leased, snap.Settled)
	}

	// The granted unit is the worker's: posting it without next settles
	// it and grants nothing.
	var plain resultReply
	call("/v1/result", fakeResult("w1", res.Next.Unit), &plain)
	if !plain.Accepted || plain.Duplicate || plain.Next != nil {
		t.Fatalf("result post without next = %+v, want a fresh accept and no grant", plain)
	}

	// Draining the campaign through grants alone ends in done.
	var rep leaseReply
	call("/v1/lease", leaseRequest{Worker: "w1"}, &rep)
	for rep.Unit != nil {
		var r resultReply
		call("/v1/result", withNext(fakeResult("w1", rep.Unit)), &r)
		if r.Next == nil {
			t.Fatalf("result post with next got no grant: %+v", r)
		}
		rep = *r.Next
	}
	if !rep.Done {
		t.Fatalf("last grant = %+v, want done", rep)
	}
	if snap := coord.Snapshot(); snap.Settled != 4 || snap.Duplicates != 1 || snap.Leased != 0 {
		t.Fatalf("snapshot = %+v, want 4 settled, 1 duplicate, nothing leased", snap)
	}
}

// TestLostGrantLapsesAtTTL: a grant whose reply never reaches the worker
// is a lease nobody holds. It lapses at its TTL, the unit is granted
// again, and the point settles exactly once. Each unit takes 60 ms to
// "run", so the steal threshold (4x the median settle time, 240 ms) sits
// well past the TTL and the lapse, not a steal, brings the unit back.
func TestLostGrantLapsesAtTTL(t *testing.T) {
	ttl := 100 * time.Millisecond
	work := 60 * time.Millisecond
	coord, call := testCoordinator(t, quickCampaign(), ttl)

	// w1 settles a unit; the reply carrying its next grant is lost.
	var first leaseReply
	call("/v1/lease", leaseRequest{Worker: "w1"}, &first)
	time.Sleep(work)
	var lost resultReply
	call("/v1/result", withNext(fakeResult("w1", first.Unit)), &lost)
	if lost.Next == nil || lost.Next.Unit == nil {
		t.Fatalf("result reply %+v carries no grant to lose", lost)
	}
	lostKey := lost.Next.Unit.Key

	// w2 works through everything else, then drains the campaign; the
	// lost grant must come back to it once the lease lapses.
	settledBy := map[string]int{first.Unit.Key: 1}
	var rep leaseReply
	call("/v1/lease", leaseRequest{Worker: "w2"}, &rep)
	for deadline := time.Now().Add(10 * time.Second); !rep.Done; {
		if time.Now().After(deadline) {
			t.Fatalf("campaign never finished; last reply %+v, snapshot %+v", rep, coord.Snapshot())
		}
		if rep.Unit == nil {
			time.Sleep(time.Duration(rep.WaitMs) * time.Millisecond / 10)
			call("/v1/lease", leaseRequest{Worker: "w2"}, &rep)
			continue
		}
		if rep.Unit.Key == lostKey && (rep.Unit.Stolen || coord.Snapshot().Expired == 0) {
			t.Fatalf("lost grant on %s re-granted before its lease lapsed (stolen=%v)", lostKey, rep.Unit.Stolen)
		}
		time.Sleep(work)
		var r resultReply
		call("/v1/result", withNext(fakeResult("w2", rep.Unit)), &r)
		if r.Duplicate {
			t.Fatalf("post of %s counted as a duplicate", rep.Unit.Key)
		}
		settledBy[rep.Unit.Key]++
		rep = *r.Next
	}

	snap := coord.Snapshot()
	if snap.Settled != 4 || snap.Duplicates != 0 || len(settledBy) != 4 {
		t.Fatalf("settled %d (%v), %d duplicates; want each of 4 points once", snap.Settled, settledBy, snap.Duplicates)
	}
	for key, n := range settledBy {
		if n != 1 {
			t.Errorf("point %s settled %d times", key, n)
		}
	}
	var attributed bool
	for _, r := range snap.Reassigned {
		attributed = attributed || (r.Key == lostKey && r.Worker == "w1")
	}
	if !attributed {
		t.Errorf("the lapsed grant on %s is not attributed to w1: %+v", lostKey, snap.Reassigned)
	}
}

// TestWorkerRefusesUnusableGrant: a grant whose TTL leaves no renewal
// interval ends the worker with a named error instead of panicking its
// renewal ticker.
func TestWorkerRefusesUnusableGrant(t *testing.T) {
	spec := experiment.PointSpec{Sweep: experiment.SweepFig7, Scheme: "basic", Bad: time.Second, Size: 128}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/campaign", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, quickCampaign()) })
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, leaseReply{Unit: &workUnit{Lease: 1, Key: "wan/basic/bad=1s/size=128", Spec: spec}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	err := RunWorker(context.Background(), WorkerConfig{Name: "w1", Coordinator: ts.URL})
	if err == nil || !strings.Contains(err.Error(), "ttl_ms 0") {
		t.Fatalf("worker on a zero-TTL grant: %v, want a named refusal", err)
	}
}
