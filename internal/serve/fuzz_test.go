package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wtcp/internal/recordlog"
	"wtcp/internal/scenario"
)

// FuzzRunRequest fuzzes the /v1/run decoder end to end: whatever the
// bytes, ParseRunRequest must never panic, and when it accepts, the
// request must be well-formed (buildable scenario, bounded
// replications) and its fingerprint stable — the properties the
// admission path relies on. The seed corpus wraps the scenario
// parser's shared seeds (internal/scenario.FuzzSeeds) in request
// envelopes, plus envelope-level malformations, so both decode layers
// are exercised on the same documents.
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
