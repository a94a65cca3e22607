package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"wtcp/internal/experiment"
	"wtcp/internal/recordlog"
	"wtcp/internal/scenario"
)

// FuzzRunRequest fuzzes the /v1/run decoder end to end: whatever the
// bytes, ParseRunRequest must never panic, and when it accepts, the
// request must be well-formed (buildable scenario, bounded
// replications) and its fingerprint stable — the properties the
// admission path relies on — and a fixed point: the request re-wrapped
// around its canonical scenario parses back to the same address. The
// seed corpus wraps the scenario parser's shared seeds
// (internal/scenario.FuzzSeeds, whose equivalent spellings of one run
// are among them) in request envelopes, plus envelope-level
// malformations, so both decode layers are exercised on the same
// documents.
func FuzzRunRequest(f *testing.F) {
	for _, s := range scenario.FuzzSeeds() {
		f.Add([]byte(fmt.Sprintf(`{"scenario":%s}`, s)))
		f.Add([]byte(fmt.Sprintf(`{"scenario":%s,"replications":3,"deadline_ms":500}`, s)))
	}
	f.Add([]byte(`{"scenario":{"preset":"wan"},"replications":65}`))
	f.Add([]byte(`{"scenario":{"preset":"wan"},"replications":-1}`))
	f.Add([]byte(`{"scenario":{"preset":"wan"},"deadline_ms":-1}`))
	f.Add([]byte(`{"scenario":{"preset":"wan"}} trailing`))
	f.Add([]byte(`{"scenario":null}`))
	f.Add([]byte(`{"campaign":{"sweeps":["fig7"]}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, sf, err := ParseRunRequest(data)
		if err != nil {
			return // rejected is fine; panicking or half-accepting is not
		}
		if req.Replications < 1 || req.Replications > MaxReplications {
			t.Fatalf("accepted replications %d outside [1, %d]", req.Replications, MaxReplications)
		}
		if req.DeadlineMS < 0 {
			t.Fatalf("accepted negative deadline_ms %d", req.DeadlineMS)
		}
		if _, err := sf.Build(); err != nil {
			t.Fatalf("accepted request whose scenario does not build: %v", err)
		}
		fp := RunFingerprint(sf, req.Replications)
		if !validFingerprint(fp) {
			t.Fatalf("fingerprint %q is not a sha256 hex digest", fp)
		}
		if again := RunFingerprint(sf, req.Replications); again != fp {
			t.Fatalf("fingerprint unstable: %s vs %s", fp, again)
		}
		canonical, err := json.Marshal(RunRequest{Scenario: mustJSON(t, sf), Replications: req.Replications})
		if err != nil {
			t.Fatal(err)
		}
		req2, sf2, err := ParseRunRequest(canonical)
		if err != nil {
			t.Fatalf("canonical request %s refused: %v", canonical, err)
		}
		if again := RunFingerprint(sf2, req2.Replications); again != fp {
			t.Fatalf("canonical request %s is addressed %s, the original %s", canonical, again, fp)
		}
	})
}

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzSweepRequest fuzzes the one campaign entry point, the /v1/sweep
// decoder, end to end (ParseSweepRequest -> experiment.ParseCampaign
// -> Validate and Specs), under the contract FuzzLedgerLoad holds:
// refuse with a named error or load, never panic. An accepted campaign
// names a non-empty grid within the request caps, and it re-encodes to
// a byte fixed point that parses back to the same SweepFingerprint, as
// does its bad-period axis re-spelled by time.Duration.String. The
// seeds are the README's manifest, the measurement spine's wan_ladder
// campaign (full and smoke), a budgeted fig9 campaign and known
// refusals, a manifest naming supervise among them.
func FuzzSweepRequest(f *testing.F) {
	for _, c := range []string{
		`{"sweeps": ["fig7", "lan"], "replications": 10, "transfer_kb": 1000, "bad_periods": ["1s", "4s"]}`,
		`{"sweeps":["fig7","fig8"],"replications":1,"base_seed":100000}`,
		`{"sweeps":["fig7","fig8"],"replications":1,"base_seed":100000,"packet_sizes":[256,1024],"bad_periods":["1s","4s"]}`,
		`{"sweeps":["fig9"],"replications":2,"transfer_kb":50,"retries":-1,"supervise":true,` +
			`"budget":{"max_events":3000,"wall_clock":"off"}}`, // refused: supervise is no field
		`{"sweeps":[]}`,
		`{"sweeps":["fig99"]}`,
		`{"sweeps":["fig7"],"replications":65}`,
		`{"sweeps":["fig7"],"packet_sizes":[40]}`,
		`{"sweeps":["fig7"],"bad_periods":["-1s"]}`,
		`{"sweeps":["fig7"],"budget":{"wall_clock":"soon"}}`,
		`{"sweeps":["fig7"],"replicatoins":3}`,
		`{"sweeps":["fig9"],"replications":2,"workers":3}`,
		`{"sweeps":["fig7","fig7"]}`,
		`{"sweeps":["fig7"],"packet_sizes":[512,512]}`,
		`{"sweeps":["fig7"],"bad_periods":["1s","1000ms"]}`,
		`null`,
		`{"sweeps":["fig9"],"replications":2,"transfer_kb":50,"retries":-1,"budget":{"max_events":3000,"wall_clock":"off"}}`,
	} {
		f.Add([]byte(`{"campaign":` + c + `}`))
		f.Add([]byte(`{"campaign":` + c + `,"deadline_ms":500}`))
	}
	f.Add([]byte(`{"campaign":{"sweeps":["fig7"]},"deadline_ms":-1}`))
	f.Add([]byte(`{"campaign":{"sweeps":["fig7"]}} trailing`))
	f.Add([]byte(`{"scenario":{"preset":"wan"}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	// A grid far past the point cap: refused before it is enumerated.
	f.Add([]byte(`{"campaign":{"sweeps":["fig9"],"packet_sizes":[` + strings.Repeat("41,", 199) + `41],` +
		`"bad_periods":["1s"` + strings.Repeat(`,"1s"`, 199) + `]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, c, err := ParseSweepRequest(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "serve: ") {
				t.Fatalf("refusal %q does not name its source", err)
			}
			return
		}
		if req.DeadlineMS < 0 || c.Replications < 0 || c.Replications > MaxReplications {
			t.Fatalf("accepted deadline_ms %d, replications %d", req.DeadlineMS, c.Replications)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted a campaign Validate refuses: %v", err)
		}
		if specs, err := c.Specs(); err != nil || len(specs) == 0 {
			t.Fatalf("accepted a campaign with %d specs (%v)", len(specs), err)
		}
		fp := SweepFingerprint(c)
		if !validFingerprint(fp) {
			t.Fatalf("fingerprint %q is not a sha256 hex digest", fp)
		}
		enc, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		again, err := experiment.ParseCampaign(enc)
		if err != nil {
			t.Fatalf("re-encoded campaign %s is refused: %v", enc, err)
		}
		if fp2 := SweepFingerprint(again); fp2 != fp {
			t.Fatalf("fingerprint moved on re-encoding %s: %s vs %s", enc, fp, fp2)
		}
		if enc2, _ := json.Marshal(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", enc, enc2)
		}
		respelled := again
		respelled.BadPeriods = nil
		for _, v := range again.BadPeriods {
			d, err := time.ParseDuration(v)
			if err != nil {
				t.Fatalf("accepted bad period %q: %v", v, err)
			}
			respelled.BadPeriods = append(respelled.BadPeriods, d.String())
		}
		if fp2 := SweepFingerprint(respelled); fp2 != fp {
			t.Fatalf("fingerprint moved when %v was spelled %v", again.BadPeriods, respelled.BadPeriods)
		}
	})
}

// FuzzRecordLogScan feeds arbitrary bytes to the record-log scan and to
// both stores built on it, as if they were what a crash or a bad disk
// left in pending.log and in a cache segment. Whatever the bytes:
// nothing panics or fails to open; the scan's intact prefix re-encodes
// to itself; the journal lists exactly the requests that prefix holds
// pending (none lost, none invented) and lists them again after its own
// rewrite; the cache serves exactly the prefix's last record per
// (index key of a) fingerprint, byte for byte. The seeds are a real journal and a real
// segment, written here by the code under test.
func FuzzRecordLogScan(f *testing.F) {
	seedDir := f.TempDir()
	j, err := openJournal(filepath.Join(seedDir, "pending"))
	if err != nil {
		f.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		body := runBody(seed, 20)
		req, sf, err := ParseRunRequest(body)
		if err != nil {
			f.Fatal(err)
		}
		p := pendingRequest{Kind: "run", Fingerprint: RunFingerprint(sf, req.Replications), Body: body}
		if err := j.put(p); err != nil {
			f.Fatal(err)
		}
		if seed == 2 {
			j.remove(p.Fingerprint)
		}
	}
	j.close()
	c, err := openDiskCache(filepath.Join(seedDir, "results"), 1<<20, cacheSegmentBytes)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.put(fmt.Sprintf("%064x", i), []byte(fmt.Sprintf(`{"fingerprint":"%064x","replications":[]}`, i))); err != nil {
			f.Fatal(err)
		}
	}
	c.close()
	for _, name := range []string{filepath.Join("pending", journalFile), filepath.Join("results", segmentName(0))} {
		data, err := os.ReadFile(filepath.Join(seedDir, name))
		if err != nil || len(data) == 0 {
			f.Fatalf("seed %s: %d bytes, %v", name, len(data), err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add(make([]byte, 24))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs [][]byte
		valid, err := recordlog.Scan(bytes.NewReader(data), int64(len(data)), func(_ int64, payload []byte) error {
			recs = append(recs, bytes.Clone(payload))
			return nil
		})
		if err != nil || valid < 0 || valid > int64(len(data)) {
			t.Fatalf("Scan of %d bytes: valid %d, err %v", len(data), valid, err)
		}
		var again []byte
		for _, r := range recs {
			again = recordlog.AppendRecord(again, r)
		}
		if !bytes.Equal(again, data[:valid]) {
			t.Fatalf("the %d records scanned do not re-encode to the %d-byte intact prefix", len(recs), valid)
		}

		// As a journal.
		pending := map[string]bool{}
		for _, r := range recs {
			var p pendingRequest
			switch {
			case len(r) > 0 && r[0] == journalPut[0] && json.Unmarshal(r[1:], &p) == nil && validFingerprint(p.Fingerprint):
				pending[p.Fingerprint] = true
			case len(r) > 0 && r[0] == journalTombstone[0]:
				delete(pending, string(r[1:]))
			}
		}
		dir := t.TempDir()
		jdir := filepath.Join(dir, "pending")
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jdir, journalFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var listed []string
		for life := 0; life < 2; life++ {
			j, err := openJournal(jdir)
			if err != nil {
				t.Fatalf("life %d: openJournal: %v", life, err)
			}
			got := fingerprints(j.list())
			j.close()
			if life == 1 && !slices.Equal(got, listed) {
				t.Fatalf("the journal's own rewrite changed what it lists: %v then %v", listed, got)
			}
			listed = got
		}
		if len(listed) != len(pending) {
			t.Fatalf("journal lists %d requests, the intact prefix holds %d pending", len(listed), len(pending))
		}
		for _, fp := range listed {
			if !pending[fp] {
				t.Fatalf("journal lists %s, which the intact prefix does not hold pending", fp)
			}
		}

		// As a cache segment.
		type entry struct {
			fp   string
			body []byte
		}
		want := map[uint64]entry{} // by the index's short key: the last record wins
		for _, r := range recs {
			var key fpKey
			if len(r) >= len(key) {
				copy(key[:], r)
				want[key.short()] = entry{hex.EncodeToString(key[:]), r[len(key):]}
			}
		}
		cdir := filepath.Join(dir, "results")
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, segmentName(7)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := openDiskCache(cdir, -1, cacheSegmentBytes)
		if err != nil {
			t.Fatalf("openDiskCache: %v", err)
		}
		defer c.close()
		if entries, _, _ := c.stats(); entries != len(want) {
			t.Fatalf("cache indexed %d entries, the intact prefix holds %d", entries, len(want))
		}
		for _, e := range want {
			if got, ok := c.get(e.fp); !ok || !bytes.Equal(got, e.body) {
				t.Fatalf("cache serves %q (found %v) for %s, the segment holds %q", got, ok, e.fp[:12], e.body)
			}
		}
	})
}

// FuzzJournalReplay feeds arbitrary journal records — put and tombstone
// payloads, NUL-separated — through journal.replay, then list, then
// queryFromPending, the path a restarted server's Resume takes.
// Whatever the payloads: nothing panics; a record replay does not
// understand is counted and leaves the live set as it was; the live
// set is what the understood records say (a fingerprint is live if its
// last record is a put); and a journal opened on a log of the same
// records lists the same requests, byte for byte, after its own
// rewrite and a reopen. The seeds are a put of each kind, a tombstone
// and malformed records.
func FuzzJournalReplay(f *testing.F) {
	put := func(kind string, body string) string {
		return fmt.Sprintf(`P{"kind":%q,"fingerprint":"%064x","body":%s}`, kind, len(kind), body)
	}
	run := put("run", string(runBody(1, 20)))
	sweep := put("sweep", `{"campaign":{"sweeps":["fig7"],"replications":1,"packet_sizes":[512],"bad_periods":["1s"]}}`)
	advise := put("advise", `{"bad":"4s"}`)
	for _, recs := range [][]string{
		{run, sweep, advise},
		{run, fmt.Sprintf("T%064x", 3), sweep},
		{run, run, fmt.Sprintf("T%064x", 3), run},
		{put("run", `{"scenario":{"preset":"mars"}}`), put("sweep", `{"campaign":{"sweeps":["fig7","fig7"]}}`), put("advise", `{"bad":"-1s"}`)},
		{put("nap", `{}`), `P{"kind":"run","fingerprint":"short","body":{}}`, `P{`, "X", "", "T"},
	} {
		f.Add([]byte(strings.Join(recs, "\x00")))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		records := bytes.Split(data, []byte{0})
		j := &journal{live: map[string]pendingRequest{}}
		want := map[string]pendingRequest{}
		skipped, wantSkipped := 0, 0
		for _, r := range records {
			before := maps.Clone(j.live)
			if !j.replay(r) {
				skipped++
				if !maps.EqualFunc(before, j.live, samePending) {
					t.Fatalf("unreadable record %q changed the live set", r)
				}
			}
			var p pendingRequest
			switch {
			case len(r) > 0 && r[0] == journalPut[0] && json.Unmarshal(r[1:], &p) == nil && validFingerprint(p.Fingerprint):
				want[p.Fingerprint] = p
			case len(r) > 0 && r[0] == journalTombstone[0]:
				delete(want, string(r[1:]))
			default:
				wantSkipped++
			}
		}
		if skipped != wantSkipped {
			t.Fatalf("replay skipped %d records, %d are unreadable", skipped, wantSkipped)
		}
		listed := j.list()
		if len(listed) != len(want) {
			t.Fatalf("journal lists %d requests, the records leave %d live", len(listed), len(want))
		}
		for _, p := range listed {
			if w, ok := want[p.Fingerprint]; !ok || !samePending(p, w) {
				t.Fatalf("journal lists %+v, the records leave %+v", p, w)
			}
		}
		s := &Server{}
		for _, p := range listed {
			if q, err := s.queryFromPending(p); err == nil && (q.exec == nil || !validFingerprint(q.fp)) {
				t.Fatalf("%s entry %s rebuilt an unrunnable query", p.Kind, p.Fingerprint)
			}
		}

		dir := t.TempDir()
		var log []byte
		for _, r := range records {
			log = recordlog.AppendRecord(log, r)
		}
		if err := os.WriteFile(filepath.Join(dir, journalFile), log, 0o644); err != nil {
			t.Fatal(err)
		}
		for life := 0; life < 2; life++ {
			j, err := openJournal(dir)
			if err != nil {
				t.Fatalf("life %d: openJournal: %v", life, err)
			}
			again := j.list()
			j.close()
			if !slices.EqualFunc(again, listed, samePending) {
				t.Fatalf("life %d lists %v, replay listed %v", life, fingerprints(again), fingerprints(listed))
			}
		}
	})
}

// samePending compares two journal entries as the journal writes them.
func samePending(a, b pendingRequest) bool {
	ea, errA := json.Marshal(a)
	eb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ea, eb)
}
