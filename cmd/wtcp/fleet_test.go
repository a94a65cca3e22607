package main

import (
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"wtcp/internal/experiment"
	"wtcp/internal/fleet"
)

// tinyCampaign is a 4-point, tiny-transfer Figure 7 campaign.
const tinyCampaign = `{
  "sweeps": ["fig7"],
  "replications": 2,
  "transfer_kb": 20,
  "packet_sizes": [512, 1536],
  "bad_periods": ["1s", "4s"],
  "oracle": true
}`

func writeCampaign(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := os.WriteFile(path, []byte(tinyCampaign), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// freeAddr reserves a loopback port and releases it for the coordinator.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestSplitModeLedgerReloadsThroughFig7 drives the command's own entry
// point in split mode — `fleet coordinate` and `fleet worker` as two
// dispatches on a loopback port — and then points the sequential engine
// at the ledger: every point reloads, equal to a fresh single-process run.
func TestSplitModeLedgerReloadsThroughFig7(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	campaign := writeCampaign(t)
	ledger := filepath.Join(t.TempDir(), "ledger.json")
	addr := freeAddr(t)

	coordErr := make(chan error, 1)
	go func() {
		_, err := dispatch(ctx, []string{"fleet", "coordinate", "-campaign", campaign, "-ledger", ledger, "-listen", addr}, io.Discard, io.Discard)
		coordErr <- err
	}()
	// The worker retries its first fetch under backoff, so it may start
	// before the coordinator is listening.
	if _, err := dispatch(ctx, []string{"fleet", "worker", "-coordinator", "http://" + addr, "-name", "w0"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := <-coordErr; err != nil {
		t.Fatalf("coordinate: %v", err)
	}

	c, err := fleet.ParseCampaign([]byte(tinyCampaign))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := c.Options()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiment.Fig7(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint = ledger
	opt.OnPoint = func(key string) { t.Errorf("point %s recomputed; the ledger should hold it", key) }
	got, err := experiment.Fig7(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || !reflect.DeepEqual(want, got) {
		t.Errorf("fig7 from the split-mode ledger differs from the sequential run:\nwant %s\ngot  %s",
			experiment.ThroughputCSV(want), experiment.ThroughputCSV(got))
	}
}

// TestCommandLineErrors: what an operator sees for each way of holding
// the command wrong.
func TestCommandLineErrors(t *testing.T) {
	campaign := writeCampaign(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no subcommand", nil, `unknown subcommand "fleet"`},
		{"unknown subcommand", []string{"shard"}, `unknown subcommand "fleet shard"`},
		{"run without campaign", []string{"run", "-ledger", "l.json"}, "-campaign campaign.json"},
		{"run without ledger", []string{"run", "-campaign", campaign}, "-ledger sweep.json"},
		{"coordinate without campaign", []string{"coordinate", "-ledger", "l.json"}, "-campaign campaign.json"},
		{"coordinate without ledger", []string{"coordinate", "-campaign", campaign}, "-ledger sweep.json"},
		{"worker without coordinator", []string{"worker"}, "-coordinator http://host:port"},
		{"unreadable campaign", []string{"run", "-campaign", campaign + ".missing", "-ledger", "l.json"}, "read campaign"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := wtcp(append([]string{"fleet"}, tc.args...)...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("wtcp fleet %q = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}
