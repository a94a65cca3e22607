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

// fleetBodyPaths are the coordinator endpoints FuzzFleetBodies posts to;
// an index past them decodes the input as a result reply, the way a
// worker reads one.
var fleetBodyPaths = []string{"/v1/lease", "/v1/renew", "/v1/result"}

// FuzzFleetBodies feeds arbitrary bytes to the coordinator's lease, renew
// and result decoders and to the worker's reading of a result reply (its
// next grant included), under the contract FuzzLedgerLoad holds for the
// ledger: refuse with a named error or load, never panic, and never
// settle a point from a refused body. An accepted result settles at most
// one point, and only the one it names.
func FuzzFleetBodies(f *testing.F) {
	key := "wan/basic/bad=1s/size=128"
	spec := experiment.PointSpec{Sweep: experiment.SweepFig7, Scheme: "basic", Bad: time.Second, Size: 128}
	reps := []experiment.RepRecord{{Seed: 1, Values: []uint64{42}}}
	seed := func(which uint8, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(which, data)
	}
	seed(0, leaseRequest{Worker: "w1"})
	seed(1, renewRequest{Worker: "w1", Lease: 1})
	seed(2, resultRequest{Worker: "w1", Lease: 1, Outcome: experiment.PointOutcome{Key: key, Reps: reps}, Next: true})
	seed(2, resultRequest{Worker: "w1", Lease: 1, Outcome: experiment.PointOutcome{Key: key,
		Quarantine: &experiment.Quarantine{Key: key, Class: "resource-exhausted", Attempts: 2}}})
	seed(2, resultRequest{Worker: "w1", Lease: 1, Outcome: experiment.PointOutcome{Key: key}, Failure: "boom"})
	seed(3, resultReply{Accepted: true, Next: &leaseReply{Unit: &workUnit{Lease: 2, Key: key, Spec: spec, TTLMs: 10000}}})
	seed(3, resultReply{Accepted: true, Duplicate: true, Next: &leaseReply{WaitMs: 200}})
	seed(3, resultReply{Accepted: true, Next: &leaseReply{Done: true}})
	f.Add(uint8(1), []byte(`{"lease":"1"}`))
	// Pinned refusals: a result with no outcome (it would settle its
	// point with nothing), a quarantine filed under another key (the
	// posted point would settle while the ledger recorded the other),
	// and grants with no usable TTL (the worker's renewal ticker would
	// panic).
	f.Add(uint8(2), []byte(`{"lease":1,"outcome":{"key":"wan/basic/bad=1s/size=128"},"next":true}`))
	seed(2, resultRequest{Worker: "w1", Lease: 1, Outcome: experiment.PointOutcome{Key: key,
		Quarantine: &experiment.Quarantine{Key: "wan/basic/bad=2s/size=512", Class: "resource-exhausted"}}})
	seed(3, resultReply{Accepted: true, Next: &leaseReply{Unit: &workUnit{Lease: 2, Key: key, Spec: spec}}})
	seed(3, resultReply{Accepted: true, Next: &leaseReply{Unit: &workUnit{Lease: 2, Key: key, Spec: spec, TTLMs: 1 << 62}}})
	f.Add(uint8(3), []byte(`{"accepted":true,"next":{"unit":{"lease":2,"key":"k","ttl_ms":-1}}}`))

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		if int(which)%4 == len(fleetBodyPaths) {
			checkResultReply(t, body)
			return
		}
		path := fleetBodyPaths[int(which)%4]
		coord, err := NewCoordinator(CoordinatorConfig{
			Campaign:   quickCampaign(),
			LedgerPath: filepath.Join(t.TempDir(), "ledger.ckpt"),
			LeaseTTL:   time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		h := coord.Handler()
		post := func(path string, body []byte) *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			return w
		}
		// Lease 1 is live on the first unit, so a result body can name it.
		if w := post("/v1/lease", []byte(`{"worker":"w1"}`)); w.Code != http.StatusOK {
			t.Fatalf("lease: %d %s", w.Code, w.Body)
		}
		before := coord.Snapshot()

		w := post(path, body)
		after := coord.Snapshot()
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			if !strings.HasPrefix(w.Body.String(), "fleet: ") {
				t.Fatalf("refusal names no error: %q", w.Body)
			}
			if after.Settled != before.Settled || after.Quarantined != before.Quarantined || after.Failure != "" {
				t.Fatalf("a refused body changed the campaign: %+v -> %+v", before, after)
			}
			return
		default:
			t.Fatalf("%s answered %d: %s", path, w.Code, w.Body)
		}
		if path != "/v1/result" {
			if after.Settled != before.Settled {
				t.Fatalf("%s settled a point", path)
			}
			return
		}
		var req resultRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("accepted a result that does not decode: %v", err)
		}
		var rep resultReply
		if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
			t.Fatalf("result reply does not decode: %v", err)
		}
		if (rep.Next != nil) != (req.Next && req.Failure == "") {
			t.Fatalf("grant %+v on a post with next=%v failure=%q", rep.Next, req.Next, req.Failure)
		}
		if rep.Next != nil {
			if err := rep.Next.check(); err != nil {
				t.Fatalf("coordinator granted what a worker refuses: %v", err)
			}
		}
		switch settled := after.Settled - before.Settled; {
		case settled == 1:
			if !coord.ledger.Has(req.Outcome.Key) {
				t.Fatalf("result settled a point but the ledger lacks %q", req.Outcome.Key)
			}
			if len(req.Outcome.Reps) == 0 && req.Outcome.Quarantine == nil {
				t.Fatalf("result settled %q with neither replications nor a quarantine", req.Outcome.Key)
			}
		case settled != 0:
			t.Fatalf("one result settled %d points", settled)
		}
	})
}

// checkResultReply reads a result reply as a worker does: decode, then
// check the grant. A grant that passes must be one runUnit can act on.
func checkResultReply(t *testing.T, body []byte) {
	var rep resultReply
	if err := json.Unmarshal(body, &rep); err != nil || rep.Next == nil {
		return
	}
	if err := rep.Next.check(); err != nil {
		if !strings.HasPrefix(err.Error(), "fleet: ") {
			t.Fatalf("refusal names no error: %v", err)
		}
		return
	}
	if u := rep.Next.Unit; u != nil {
		if ttl := time.Duration(u.TTLMs) * time.Millisecond; ttl/3 <= 0 {
			t.Fatalf("accepted grant with ttl %v: its renewal ticker would panic", ttl)
		}
		if key, err := u.Spec.Key(); err != nil || key != u.Key {
			t.Fatalf("accepted grant for %q with spec key %q (%v)", u.Key, key, err)
		}
	}
}
