//go:build unix

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startServer launches `wtcp serve` through the dispatcher's exit path
// in a goroutine and returns the base URL it listens on, the line that
// announced it (which says how many journaled requests were resumed),
// plus a channel carrying its exit status. The caller drives shutdown by
// sending SIGTERM to the test process — the same signal a supervisor
// would send — and waits on the channel.
func startServer(t *testing.T, args []string) (base, banner string, exit <-chan int) {
	t.Helper()
	pr, pw := io.Pipe()
	codeCh := make(chan int, 1)
	go func() {
		code := run(append([]string{"serve"}, args...), pw, os.Stderr)
		pw.Close()
		codeCh <- code
	}()
	lines := bufio.NewScanner(pr)
	for lines.Scan() {
		line := lines.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr := strings.Fields(line[i+len("listening on "):])[0]
			// Drain the rest of the pipe so the server never blocks on writes.
			go func() {
				for lines.Scan() {
				}
			}()
			return "http://" + addr, line, codeCh
		}
	}
	select {
	case code := <-codeCh:
		t.Fatalf("server exited %d before listening", code)
	default:
		t.Fatal("server output ended before listening line")
	}
	return "", "", nil
}

func sigterm(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
}

func waitExit(t *testing.T, codeCh <-chan int) {
	t.Helper()
	select {
	case code := <-codeCh:
		if code != 0 {
			t.Fatalf("server exited %d", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
}

func TestServeRunAndGracefulExit(t *testing.T) {
	dir := t.TempDir()
	base, _, codeCh := startServer(t, []string{"-data", dir, "-addr", "127.0.0.1:0"})

	body := []byte(`{"scenario":{"mean_bad":"4s","transfer_kb":50,"seed":3}}`)
	resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: HTTP %d: %s", resp.StatusCode, fresh)
	}
	resp, err = http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	cached, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Wtcpd-Cache") != "hit" || !bytes.Equal(fresh, cached) {
		t.Errorf("repeat request: cache=%q identical=%v", resp.Header.Get("X-Wtcpd-Cache"), bytes.Equal(fresh, cached))
	}
	if resp, err := http.Get(base + "/healthz"); err == nil {
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/healthz: HTTP %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	sigterm(t)
	waitExit(t, codeCh)
}

func TestDrainJournalsInFlightWorkAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	base, _, codeCh := startServer(t, []string{"-data", dir, "-addr", "127.0.0.1:0", "-drain-grace", "50ms"})

	// Enough replications that the run is still going when the drain hits
	// (about 20 ms each), every one of which completes its transfer.
	body := []byte(`{"scenario":{"mean_bad":"4s","transfer_kb":5000,"seed":5},"replications":32}`)
	type reply struct {
		status int
		body   []byte
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			got <- reply{}
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- reply{resp.StatusCode, data}
	}()
	time.Sleep(150 * time.Millisecond) // admitted and executing
	sigterm(t)
	waitExit(t, codeCh)
	drained := <-got
	if drained.status != http.StatusServiceUnavailable {
		t.Fatalf("drained in-flight request: HTTP %d, want 503", drained.status)
	}
	var e struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(drained.body, &e); err != nil || len(e.Fingerprint) != 64 {
		t.Fatalf("503 body carries no fingerprint (err %v): %s", err, drained.body)
	}
	fp := e.Fingerprint

	// Second life on the same data directory finds exactly that one
	// journal entry, resumes and finishes it.
	base2, banner, codeCh2 := startServer(t, []string{"-data", dir, "-addr", "127.0.0.1:0"})
	if !strings.Contains(banner, "resumed 1 journaled request(s)") {
		t.Fatalf("journal after drain: second life said %q, want 1 entry resumed", banner)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/result/%s", base2, fp))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if !strings.Contains(string(data), fp) {
				t.Errorf("result body does not carry its fingerprint: %s", data)
			}
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("resumed result: HTTP %d: %s", resp.StatusCode, data)
		}
		if time.Now().After(deadline) {
			t.Fatal("resumed work never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
	sigterm(t)
	waitExit(t, codeCh2)
}

func TestDataFlagIsRequired(t *testing.T) {
	if _, _, err := wtcp("serve", "-addr", "127.0.0.1:0"); err == nil {
		t.Fatal("serve without -data succeeded")
	}
}
