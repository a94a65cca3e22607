//go:build unix

package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
	"time"
)

// TestSignalDumpIsSnapshotJSON signals the test's own process: the
// SIGUSR1 dump is SnapshotJSON's rendering (it decodes as a
// HealthSnapshot, unknown keys refused, and re-encodes to the same
// bytes), carries the collector's counters, and has the key set of the
// status file the heartbeat writes at stop.
func TestSignalDumpIsSnapshotJSON(t *testing.T) {
	h := NewHealth()
	h.SetStragglerLog(nil)
	h.runFinished(h.runStarted("wan/basic/bad=1s/size=512", 3), 777, true)
	h.noteQuarantine(Quarantine{Key: "wan/basic/bad=1s/size=512"})
	path := filepath.Join(t.TempDir(), "status.json")
	pr, pw := io.Pipe()
	defer pr.Close() // unblocks the dump should the test fail before reading it
	stop := h.Heartbeat(path, pw)
	defer stop()

	if err := syscall.Kill(os.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		var dump []byte
		r := bufio.NewReader(pr)
		for { // MarshalIndent closes the document with "}" on a line of its own
			line, err := r.ReadBytes('\n')
			dump = append(dump, line...)
			if err != nil || string(line) == "}\n" {
				break
			}
		}
		got <- dump
	}()
	var dump []byte
	select {
	case dump = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("no SIGUSR1 dump within 10 s")
	}

	var snap HealthSnapshot
	dec := json.NewDecoder(bytes.NewReader(dump))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("SIGUSR1 dump is not a HealthSnapshot: %v\n%s", err, dump)
	}
	if again, err := encodeSnapshot(snap); err != nil || !bytes.Equal(again, dump) {
		t.Errorf("SIGUSR1 dump is not SnapshotJSON's rendering:\n%s\nre-encoded:\n%s", dump, again)
	}
	if snap.Completed != 1 || snap.Quarantined != 1 || snap.EventsProcessed != 777 {
		t.Errorf("dump counters wrong: %+v", snap)
	}

	stop()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fileKeys, dumpKeys map[string]any
	if err := json.Unmarshal(raw, &fileKeys); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(dump, &dumpKeys); err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]any) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		slices.Sort(out)
		return out
	}
	if f, d := keys(fileKeys), keys(dumpKeys); !slices.Equal(f, d) {
		t.Errorf("dump keys %v, status file keys %v", d, f)
	}
}
