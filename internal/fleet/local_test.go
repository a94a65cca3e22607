package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wtcp/internal/experiment"
)

// integrationCampaign is a real-simulation campaign sized for tests:
// fig7 (2 points) plus lan (2 points), two replications each.
func integrationCampaign() Campaign {
	return Campaign{
		Sweeps:       []string{experiment.SweepFig7, experiment.SweepLAN},
		Replications: 2,
		TransferKB:   20,
		PacketSizes:  []int{128, 512},
		BadPeriods:   []string{"1s"},
		Oracle:       true,
	}
}

// sequentialResults runs the campaign's sweeps on the plain sequential
// engine and returns the figure points.
func sequentialResults(t *testing.T, c Campaign, checkpoint string) ([]experiment.ThroughputPoint, []experiment.LANPoint) {
	t.Helper()
	opt, err := c.Options()
	if err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint = checkpoint
	fig7, err := experiment.Fig7(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	lan, err := experiment.LANStudy(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return fig7, lan
}

// TestShardedMatchesSequential is the core merge guarantee: a campaign
// sharded over in-process workers produces a ledger from which the
// sequential engine reloads every point, yielding results identical bit
// for bit to a fresh single-process run.
func TestShardedMatchesSequential(t *testing.T) {
	c := integrationCampaign()

	// Fresh sequential run, no checkpoint: the reference.
	wantFig7, wantLAN := sequentialResults(t, c, "")

	// Sharded run into a ledger.
	ledger := filepath.Join(t.TempDir(), "ledger.json")
	snap, err := RunLocal(context.Background(), LocalOptions{
		Campaign:   c,
		Workers:    3,
		LedgerPath: ledger,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Settled != snap.TotalUnits || snap.TotalUnits != 4 {
		t.Fatalf("campaign settled %d/%d, want 4/4", snap.Settled, snap.TotalUnits)
	}

	// Merge pass: the sequential engine pointed at the ledger reloads
	// every point (OnPoint would fire for freshly computed ones — it
	// must never fire here).
	opt, err := c.Options()
	if err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint = ledger
	opt.OnPoint = func(key string) { t.Errorf("point %s recomputed during merge; ledger should hold it", key) }
	gotFig7, err := experiment.Fig7(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	gotLAN, err := experiment.LANStudy(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(wantFig7, gotFig7) {
		t.Errorf("fig7 from sharded ledger differs from sequential run:\nwant %s\ngot  %s",
			renderTput(wantFig7), renderTput(gotFig7))
	}
	if !reflect.DeepEqual(wantLAN, gotLAN) {
		t.Errorf("lan study from sharded ledger differs from sequential run")
	}
}

// renderTput summarizes throughput points (hex floats, so a one-bit
// difference is visible) for failure messages.
func renderTput(ps []experiment.ThroughputPoint) string {
	out := ""
	for _, p := range ps {
		out += p.BadPeriod.String() + "/" + p.PacketSize.String() + ":"
		for _, v := range p.ThroughputKbps.Values() {
			out += " " + strconv.FormatFloat(v, 'x', -1, 64)
		}
		out += ";"
	}
	return out
}

// faultyRPCs is a worker's transport under boundary chaos: it delivers
// every result post twice, returning the second reply (a client that
// retried after losing the first), and drops renewals with probability
// dropRenew before delivery. Its draws come from a seeded RNG.
type faultyRPCs struct {
	dropRenew float64
	mu        sync.Mutex
	rng       *rand.Rand
}

func (f *faultyRPCs) RoundTrip(req *http.Request) (*http.Response, error) {
	switch {
	case strings.HasSuffix(req.URL.Path, "/v1/renew"):
		f.mu.Lock()
		drop := f.rng.Float64() < f.dropRenew
		f.mu.Unlock()
		if drop {
			return nil, errors.New("dropped renewal")
		}
	case strings.HasSuffix(req.URL.Path, "/v1/result"):
		// The worker's request bodies are byte readers, which
		// http.NewRequest makes replayable through GetBody.
		dup := req.Clone(req.Context())
		var err error
		if dup.Body, err = req.GetBody(); err != nil {
			return nil, err
		}
		first, err := http.DefaultTransport.RoundTrip(dup)
		if err != nil {
			return nil, err
		}
		first.Body.Close()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestChaoticBoundaryStillExact injects heavy RPC faults — every result
// post duplicated, renewals dropped half the time — and asserts the
// campaign still completes with every point counted exactly once and
// bit-identical results.
func TestChaoticBoundaryStillExact(t *testing.T) {
	c := integrationCampaign()
	wantFig7, wantLAN := sequentialResults(t, c, "")

	ledger := filepath.Join(t.TempDir(), "ledger.json")
	coord, err := NewCoordinator(CoordinatorConfig{Campaign: c, LedgerPath: ledger, leaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{Transport: &faultyRPCs{dropRenew: 0.5, rng: rand.New(rand.NewSource(int64(7 + i)))}}
			if err := RunWorker(ctx, WorkerConfig{Name: fmt.Sprintf("worker-%d", i), Coordinator: ts.URL, HTTPClient: client}); err != nil && ctx.Err() == nil {
				t.Errorf("worker-%d: %v", i, err)
			}
		}(i)
	}
	select {
	case <-coord.Done():
	case <-time.After(2 * time.Minute):
		t.Fatal("campaign never finished under chaos")
	}
	cancel()
	wg.Wait()
	if err := coord.Err(); err != nil {
		t.Fatal(err)
	}
	snap := coord.Snapshot()
	coord.Close()
	if snap.Settled != 4 {
		t.Fatalf("campaign settled %d/4 under chaos", snap.Settled)
	}
	if snap.Duplicates == 0 {
		t.Error("duplicated result posts produced no coordinator-side duplicate drops")
	}

	opt, err := c.Options()
	if err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint = ledger
	gotFig7, err := experiment.Fig7(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	gotLAN, err := experiment.LANStudy(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantFig7, gotFig7) || !reflect.DeepEqual(wantLAN, gotLAN) {
		t.Error("results under boundary chaos differ from sequential run")
	}
}

// TestFleetStatusSnapshot checks the fleet snapshot RunLocal returns
// credits every settled point to one of the workers it started. A
// worker whose first lease comes after the last point settles is
// canceled unseen, so the snapshot names one or both.
func TestFleetStatusSnapshot(t *testing.T) {
	c := integrationCampaign()
	snap, err := RunLocal(context.Background(), LocalOptions{
		Campaign:   c,
		Workers:    2,
		LedgerPath: filepath.Join(t.TempDir(), "ledger.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Settled != snap.TotalUnits || snap.Settled == 0 {
		t.Fatalf("snapshot settled %d of %d units", snap.Settled, snap.TotalUnits)
	}
	if len(snap.Workers) == 0 || len(snap.Workers) > 2 {
		t.Fatalf("snapshot has %d workers, want 1 or 2", len(snap.Workers))
	}
	total := 0
	for _, w := range snap.Workers {
		if w.Name != "worker-0" && w.Name != "worker-1" {
			t.Errorf("snapshot names worker %q, RunLocal started worker-0 and worker-1", w.Name)
		}
		total += w.Completed
	}
	if total != snap.Settled {
		t.Errorf("per-worker completions sum to %d, want %d settled", total, snap.Settled)
	}
}
