package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goodCheckpoint writes a valid checkpoint holding two points and two
// quarantines at path (under settleOpts) and returns its bytes.
func goodCheckpoint(t testing.TB, path string) []byte {
	t.Helper()
	led, err := OpenLedger(path, settleOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range []string{"wan/basic/bad=1s/size=512", "lan/ebsn/bad=400ms"} {
		reps := []RepRecord{{Seed: int64(i + 1), Values: []uint64{1 << 62, 3}}, {Seed: int64(i + 2), Values: []uint64{5, 7}, Backoffs: []int64{61}}}
		if err := led.Put(key, reps); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []string{"wan/basic/bad=4s/size=1536", "fig9/ebsn/bad=2s/size=128"} {
		if err := led.PutQuarantine(Quarantine{Key: key, Class: "resource-exhausted", Attempts: 2, Reason: "events budget", Worker: "worker-1"}); err != nil {
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

// refusedThenReleased asserts that opening path fails closed — an error
// naming the path, no panic — and that the refusal released the .lock:
// once a good file is back at the same path, the next open succeeds and
// sees all of it.
func refusedThenReleased(t *testing.T, path string, opt Options, good []byte) {
	t.Helper()
	led, err := OpenLedger(path, opt)
	if err == nil {
		led.Close()
		t.Fatal("corrupt checkpoint opened without error")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the file %s", err, path)
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

// TestLedgerRefusesCorruptFiles: a checkpoint that was cut short,
// written by another version or under other options, or that repeats a
// key is refused with a named error — never a panic, never a silently
// missing point, never a leaked lock.
func TestLedgerRefusesCorruptFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	good := goodCheckpoint(t, path)
	rewrite := func(edit func(*checkpointFile)) []byte {
		var f checkpointFile
		if err := json.Unmarshal(good, &f); err != nil {
			t.Fatal(err)
		}
		edit(&f)
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// Every strict prefix. The file's final newline is not content — the
	// object is complete without it — so prefixes are taken of the
	// object itself.
	object := bytes.TrimRight(good, "\n")
	for n := 0; n < len(object); n++ {
		if err := os.WriteFile(path, object[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		refusedThenReleased(t, path, settleOpts(), good)
		if t.Failed() {
			t.Fatalf("at prefix length %d of %d", n, len(object))
		}
	}

	cases := map[string][]byte{
		"wrong version":       rewrite(func(f *checkpointFile) { f.Version = checkpointVersion + 1 }),
		"repeated point":      rewrite(func(f *checkpointFile) { f.Points = append(f.Points, f.Points[0]) }),
		"repeated quarantine": rewrite(func(f *checkpointFile) { f.Quarantined = append(f.Quarantined, f.Quarantined[1]) }),
		"not an object":       []byte(`[1, 2, 3]`),
		"wrong field type":    []byte(`{"version": 1, "fingerprint": 7}`),
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
		refusedThenReleased(t, path, foreign, good)
	})
}

// FuzzLedgerLoad feeds the checkpoint decoder arbitrary file contents:
// it must refuse or load, never panic; a refusal names the path; a load
// re-encodes to a file that loads again holding every key, and
// re-encodes to the same bytes (the format is a fixed point of the
// ledger's own writes). It runs on the bytes, not through the file
// system, so a ten-second smoke makes thousands of executions;
// TestLedgerRefusesCorruptFiles covers the lock around it.
func FuzzLedgerLoad(f *testing.F) {
	good := goodCheckpoint(f, filepath.Join(f.TempDir(), "seed.json"))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(bytes.Replace(good, []byte(`"version": 1`), []byte(`"version": 2`), 1))
	f.Add(bytes.Replace(good, []byte("size=1536"), []byte("size=128"), 1))
	f.Add([]byte(`{"version":1,"fingerprint":"","points":[{"key":"k","reps":null},{"key":"k"}]}`))
	empty := func() *Ledger {
		return &Ledger{path: "fuzz-checkpoint.json", fingerprint: settleOpts().withDefaults().fingerprint(),
			points: map[string][]RepRecord{}, quars: map[string]Quarantine{}}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		led := empty()
		if err := led.decode(data); err != nil {
			if !strings.Contains(err.Error(), led.path) {
				t.Errorf("refusal %q does not name the file", err)
			}
			return
		}
		var held checkpointFile
		if err := json.Unmarshal(data, &held); err != nil {
			t.Fatalf("loaded a file that does not parse: %v", err)
		}
		first, err := led.encodeLocked()
		if err != nil {
			t.Fatal(err)
		}
		again := empty()
		if err := again.decode(first); err != nil {
			t.Fatalf("the ledger's own rewrite of a loaded file is refused: %v", err)
		}
		for _, p := range held.Points {
			if !again.Has(p.Key) {
				t.Errorf("point %q lost across a rewrite", p.Key)
			}
		}
		if got := len(again.Quarantined()); got != len(held.Quarantined) {
			t.Errorf("%d quarantines after a rewrite, file held %d", got, len(held.Quarantined))
		}
		second, err := again.encodeLocked()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("rewrite is not a fixed point:\n%s\n---\n%s", first, second)
		}
	})
}
