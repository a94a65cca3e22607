package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wtcp/internal/recordlog"
)

// goodKeys are goodCheckpoint's records in the order it writes them:
// two points, then two quarantines.
var goodKeys = []string{"wan/basic/bad=1s/size=512", "lan/ebsn/bad=400ms", "wan/basic/bad=4s/size=1536", "fig9/ebsn/bad=2s/size=128"}

// goodCheckpoint writes a valid checkpoint holding two points and two
// quarantines at path (under settleOpts) and returns its bytes.
func goodCheckpoint(t testing.TB, path string) []byte {
	t.Helper()
	led, err := OpenLedger(path, settleOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range goodKeys[:2] {
		reps := []RepRecord{{Seed: int64(i + 1), Values: []uint64{1 << 62, 3}}, {Seed: int64(i + 2), Values: []uint64{5, 7}}}
		if err := led.Put(key, reps); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range goodKeys[2:] {
		q := Quarantine{Key: key, Class: "resource-exhausted", Attempts: 2, Reason: "events budget", Worker: "worker-1"}
		if _, err := led.Record(PointOutcome{Key: key, Quarantine: &q}); err != nil {
			t.Fatal(err)
		}
	}
	led.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// layout renders the whole ledger as a file: the header, then every
// point and every quarantine, each in ledger order — the bytes the same
// writes append.
func layout(l *Ledger) ([]byte, error) {
	data, err := appendJSON(nil, recHeader, ledgerHeader{logVersion, l.fingerprint})
	if err != nil {
		return nil, err
	}
	for _, k := range l.order {
		if data, err = appendJSON(data, recPoint, pointRecord{Key: k, Reps: l.points[k]}); err != nil {
			return nil, err
		}
	}
	for _, k := range l.quarOrder {
		if data, err = appendJSON(data, recQuarantine, l.quars[k]); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// appendJSON appends one record of the given kind holding v.
func appendJSON(dst, kind []byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return recordlog.AppendRecord(dst, kind, body), nil
}

// v1Checkpoint returns goodCheckpoint's ledger in the version 1 layout
// (one JSON object), as the last build that wrote it left it.
func v1Checkpoint(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "ledger-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recordEnds returns the offset just past each record of a version 2
// file, the header's first.
func recordEnds(t testing.TB, data []byte) []int64 {
	t.Helper()
	var ends []int64
	valid, err := recordlog.Scan(bytes.NewReader(data), int64(len(data)), func(off int64, payload []byte) error {
		ends = append(ends, off+recordlog.HeaderSize+int64(len(payload)))
		return nil
	})
	if err != nil || valid != int64(len(data)) {
		t.Fatalf("scan: valid %d of %d, err %v", valid, len(data), err)
	}
	return ends
}

// refusedThenReleased asserts that opening path fails closed — an error
// naming the path, no panic, the file's bytes untouched — and that the
// refusal released the .lock: once a good file is back at the same
// path, the next open succeeds and sees all of it.
func refusedThenReleased(t *testing.T, path string, opt Options, good []byte) {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	led, err := OpenLedger(path, opt)
	if err == nil {
		led.Close()
		t.Fatal("corrupt checkpoint opened without error")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the file %s", err, path)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(before, after) {
		t.Errorf("a refused open changed the file (err %v)", err)
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	led, err = OpenLedger(path, settleOpts())
	if err != nil {
		t.Fatalf("open of a good file after a refused one: %v (lock not released?)", err)
	}
	defer led.Close()
	if !led.Has("lan/ebsn/bad=400ms") || len(led.Quarantined()) != 2 {
		t.Error("good file reopened incomplete")
	}
}

// TestLedgerRefusesCorruptFiles: a checkpoint that is empty or lost its
// header, was written by another version (version 1 among them, whatever
// it holds) or under other options, or holds a record no version wrote
// is refused with a named error and left as it was — never a panic,
// never a silently missing point, never a leaked lock. A file cut
// anywhere past its header loads what it holds whole.
func TestLedgerRefusesCorruptFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	good := goodCheckpoint(t, path)
	// v1 edits the version 1 file's object: it is refused whatever it
	// holds.
	v1 := func(edit func(f map[string]any)) []byte {
		var f map[string]any
		if err := json.Unmarshal(v1Checkpoint(t), &f); err != nil {
			t.Fatal(err)
		}
		edit(f)
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	repeat := func(field string, i int) func(map[string]any) {
		return func(f map[string]any) {
			list := f[field].([]any)
			f[field] = append(list, list[i])
		}
	}

	// Every cut inside a version 2 header.
	ends := recordEnds(t, good)
	for n := int64(1); n < ends[0]; n++ {
		if err := os.WriteFile(path, good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		refusedThenReleased(t, path, settleOpts(), good)
		if t.Failed() {
			t.Fatalf("at version 2 cut %d inside a %d-byte header", n, ends[0])
		}
	}

	// header rebuilds good under another header record.
	header := func(h ledgerHeader) []byte {
		body, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		return append(recordlog.AppendRecord(nil, recHeader, body), good[ends[0]:]...)
	}
	damaged := bytes.Clone(good)
	damaged[ends[0]-2] ^= 0x20
	cases := map[string][]byte{
		"empty":                       nil,
		"wrong version":               v1(func(f map[string]any) { f["version"] = 2 }),
		"repeated point":              v1(repeat("points", 0)),
		"repeated quarantine":         v1(repeat("quarantined", 1)),
		"not an object":               []byte(`[1, 2, 3]`),
		"wrong field type":            []byte(`{"version": 1, "fingerprint": 7}`),
		"version 2 wrong version":     header(ledgerHeader{logVersion + 1, settleOpts().WithDefaults().fingerprint()}),
		"version 2 damaged header":    damaged,
		"version 2 unreadable record": recordlog.AppendRecord(bytes.Clone(good), []byte("?what")),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			refusedThenReleased(t, path, settleOpts(), good)
		})
	}
	t.Run("foreign fingerprint", func(t *testing.T) {
		foreign := settleOpts()
		foreign.Replications++
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
		refusedThenReleased(t, path, foreign, good)
	})

	// A version 2 file replays as its writes ran: Put overwrites, so the
	// last record of a key wins, at the place of its first.
	t.Run("version 2 repeated point", func(t *testing.T) {
		again := []RepRecord{{Seed: 9, Values: []uint64{9}}}
		data, err := appendJSON(bytes.Clone(good), recPoint, pointRecord{Key: goodKeys[0], Reps: again})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		led, err := OpenLedger(path, settleOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer led.Close()
		if reps, _ := led.Reps(goodKeys[0]); !reflect.DeepEqual(reps, again) || !slices.Equal(led.order, goodKeys[:2]) {
			t.Errorf("order %v, reps %+v; want %v and the last record's reps", led.order, reps, goodKeys[:2])
		}
	})

	t.Run("version 2 torn tail", func(t *testing.T) {
		var report strings.Builder
		stderr = &report
		t.Cleanup(func() { stderr = os.Stderr })
		next := []RepRecord{{Seed: 9, Values: []uint64{9}}}
		for cut := ends[0]; cut < int64(len(good)); cut++ {
			report.Reset()
			if err := os.WriteFile(path, good[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			led, err := OpenLedger(path, settleOpts())
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			whole := 0 // records wholly inside the cut, header excluded
			for _, end := range ends[1:] {
				if end <= cut {
					whole++
				}
			}
			if got := append(append([]string(nil), led.order...), led.quarOrder...); !slices.Equal(got, goodKeys[:whole]) {
				t.Errorf("cut %d: loaded %v, want %v", cut, got, goodKeys[:whole])
			}
			atBoundary := cut == ends[whole]
			if reported := strings.Contains(report.String(), path); reported == atBoundary {
				t.Errorf("cut %d: report %q; want one exactly when the cut is inside a record", cut, report.String())
			}
			if err := led.Put("next", next); err != nil {
				t.Fatal(err)
			}
			led.Close()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := recordEnds(t, data); !reflect.DeepEqual(got[:len(got)-1], ends[:whole+1]) {
				t.Errorf("cut %d: the next put did not land right after the whole records: ends %v, want %v then one", cut, got, ends[:whole+1])
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	})
}

// TestLedgerRefusesVersion1: a file the version 1 layout wrote (one
// JSON object, before the record log) is refused by path as a version 1
// file and left byte for byte as it was — never adopted, never read as
// an empty ledger.
func TestLedgerRefusesVersion1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	good := goodCheckpoint(t, path)
	if err := os.WriteFile(path, v1Checkpoint(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if led, err := OpenLedger(path, settleOpts()); err == nil || !strings.Contains(err.Error(), "version 1") {
		led.Close()
		t.Fatalf("open of a version 1 file: %v, want a refusal naming version 1", err)
	}
	refusedThenReleased(t, path, settleOpts(), good)
}

// FuzzLedgerLoad feeds the checkpoint loader arbitrary file contents:
// it must refuse or load, never panic; a refusal names the path; a load
// lays out as a file that loads again holding every key, and lays out
// to the same bytes (the layout is a fixed point of the ledger's own
// writes). The version 1 seeds are refused. It runs on the bytes, not through the file
// system, so a ten-second smoke makes thousands of executions;
// TestLedgerRefusesCorruptFiles covers the lock and the torn tail around
// it.
func FuzzLedgerLoad(f *testing.F) {
	v1 := v1Checkpoint(f)
	f.Add(v1)
	f.Add(v1[:len(v1)/2])
	f.Add(bytes.Replace(v1, []byte(`"version": 1`), []byte(`"version": 2`), 1))
	f.Add(bytes.Replace(v1, []byte("size=1536"), []byte("size=128"), 1))
	f.Add([]byte(`{"version":1,"fingerprint":"","points":[{"key":"k","reps":null},{"key":"k"}]}`))
	good := goodCheckpoint(f, filepath.Join(f.TempDir(), "seed.json"))
	f.Add(good)
	f.Add(good[:len(good)-3])
	twice, err := appendJSON(bytes.Clone(good), recPoint, pointRecord{Key: goodKeys[0]})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(twice) // a key recorded twice: the last record wins
	empty := func() *Ledger {
		return &Ledger{path: "fuzz-checkpoint.json", fingerprint: settleOpts().WithDefaults().fingerprint(),
			points: map[string][]RepRecord{}, quars: map[string]Quarantine{}}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		led := empty()
		if err := led.replay(data); err != nil {
			if !strings.Contains(err.Error(), led.path) {
				t.Errorf("refusal %q does not name the file", err)
			}
			return
		}
		if len(led.order) != len(led.points) || len(led.quarOrder) != len(led.quars) {
			t.Errorf("a key is listed twice: order %q, quarantine order %q", led.order, led.quarOrder)
		}
		first, err := layout(led)
		if err != nil {
			t.Fatal(err)
		}
		again := empty()
		if err := again.replay(first); err != nil {
			t.Fatalf("the ledger's own layout of a loaded file is refused: %v", err)
		}
		for _, k := range led.order {
			if !again.Has(k) {
				t.Errorf("point %q lost across a layout", k)
			}
		}
		if got, held := len(again.Quarantined()), len(led.quarOrder); got != held {
			t.Errorf("%d quarantines after a layout, file held %d", got, held)
		}
		second, err := layout(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("layout is not a fixed point:\n%q\n---\n%q", first, second)
		}
	})
}
