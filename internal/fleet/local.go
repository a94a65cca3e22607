package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"sync"
	"time"

	"wtcp/internal/chaos"
	"wtcp/internal/experiment"
)

// LocalOptions configures RunLocal.
type LocalOptions struct {
	// Campaign is the validated manifest.
	Campaign Campaign
	// Workers is the fleet size (default 4).
	Workers int
	// LedgerPath is the checkpoint file results merge into (required).
	LedgerPath string
	// StatusPath, when set, receives the fleet Snapshot.
	StatusPath string
	// LeaseTTL overrides DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Faults is an optional chaos plan for the coordinator/worker
	// boundary (renew/result RPC faults apply to in-process workers too;
	// Kill needs subprocess workers).
	Faults *chaos.FleetFaults
	// WorkerCommand, when set, launches worker i as a subprocess that
	// must connect to url and run the worker loop (wtcp fleet run self-execs
	// `wtcp fleet worker`; tests re-exec the test binary). When nil,
	// workers run as in-process goroutines — same protocol, same
	// determinism, no process isolation.
	WorkerCommand func(i int, name, url string) *exec.Cmd
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)
}

// RunLocal runs a complete sharded campaign on this machine: it starts
// a coordinator on a loopback port, launches the workers, waits for
// every point to settle, and returns with the ledger closed and ready
// for the merge pass. Worker crashes are survived (their leases lapse
// and the points reassign); a fail-fast failure from any worker stops
// the campaign and is returned.
func RunLocal(ctx context.Context, lo LocalOptions) (Snapshot, error) {
	if lo.Workers <= 0 {
		lo.Workers = 4
	}
	if lo.Log == nil {
		lo.Log = func(string, ...any) {}
	}
	if err := lo.Faults.Validate(); err != nil {
		return Snapshot{}, err
	}
	if lo.Faults.Enabled() && lo.Faults.Kill != nil && lo.Faults.Kill.Worker >= lo.Workers {
		return Snapshot{}, fmt.Errorf("fleet: kill.worker %d out of range (fleet has %d workers)", lo.Faults.Kill.Worker, lo.Workers)
	}

	coord, err := NewCoordinator(CoordinatorConfig{
		Campaign:   lo.Campaign,
		LedgerPath: lo.LedgerPath,
		StatusPath: lo.StatusPath,
		LeaseTTL:   lo.LeaseTTL,
		Log:        lo.Log,
	})
	if err != nil {
		return Snapshot{}, err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Snapshot{}, fmt.Errorf("fleet: listen: %w", err)
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + ln.Addr().String()
	lo.Log("fleet: coordinator listening on %s (%d workers)", url, lo.Workers)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Launch the fleet.
	var wg sync.WaitGroup
	procs := make([]*exec.Cmd, lo.Workers)
	for i := 0; i < lo.Workers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		if lo.WorkerCommand != nil {
			cmd := lo.WorkerCommand(i, name, url)
			if err := cmd.Start(); err != nil {
				cancel()
				return Snapshot{}, fmt.Errorf("fleet: start %s: %w", name, err)
			}
			procs[i] = cmd
			wg.Add(1)
			go func(cmd *exec.Cmd, name string) {
				defer wg.Done()
				if err := cmd.Wait(); err != nil && ctx.Err() == nil {
					// A dead worker is survivable by design — it is logged,
					// and the campaign fails only via the coordinator's own
					// fail-fast path.
					lo.Log("fleet: %s exited: %v", name, err)
				}
			}(cmd, name)
		} else {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				cfg := WorkerConfig{
					Name:        name,
					Coordinator: url,
					Health:      experiment.NewHealth(),
					HTTPClient:  NewFaultClient(lo.Faults, lo.Campaign.BaseSeed+int64(i)),
					Log:         lo.Log,
				}
				if err := RunWorker(ctx, cfg); err != nil && ctx.Err() == nil {
					// Log-only, like a dead subprocess: a worker that failed
					// for fleet-local reasons (could not reach the coordinator,
					// say) is fatal only if the campaign cannot finish
					// without it.
					lo.Log("fleet: %s: %v", name, err)
				}
			}(i, name)
		}
	}

	// Chaos: SIGKILL the configured worker once it has settled enough
	// units and holds a lease, so the kill lands mid-point.
	if lo.Faults.Enabled() && lo.Faults.Kill != nil && lo.WorkerCommand != nil {
		go watchAndKill(ctx, coord, procs, *lo.Faults.Kill, lo.Log)
	}

	// Wait for the campaign to finish (or the caller to give up).
	select {
	case <-coord.Done():
	case <-ctx.Done():
		cancel()
		wg.Wait()
		for _, cmd := range procs {
			if cmd != nil && cmd.Process != nil {
				cmd.Process.Kill()
			}
		}
		return coord.Snapshot(), ctx.Err()
	}
	err = coord.Err()
	snap := coord.Snapshot()
	cancel()
	// Idle workers notice Done on their next lease poll; killing the
	// context (above) unblocks the rest. Subprocess workers exit on the
	// Done reply; give stragglers a nudge.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		for _, cmd := range procs {
			if cmd != nil && cmd.Process != nil {
				cmd.Process.Kill()
			}
		}
		wg.Wait()
	}
	return snap, err
}

// watchAndKill polls the coordinator snapshot until the target worker
// has settled AfterUnits units and currently holds a lease, then
// SIGKILLs its process. The campaign must recover: the lease lapses,
// the point reassigns, nothing is lost or double-counted.
func watchAndKill(ctx context.Context, coord *Coordinator, procs []*exec.Cmd, kill chaos.WorkerKill, logf func(string, ...any)) {
	name := fmt.Sprintf("worker-%d", kill.Worker)
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-coord.Done():
			return
		case <-t.C:
		}
		snap := coord.Snapshot()
		for _, wh := range snap.Workers {
			if wh.Name != name || wh.Completed < kill.AfterUnits || wh.Leases == 0 {
				continue
			}
			cmd := procs[kill.Worker]
			if cmd == nil || cmd.Process == nil {
				return
			}
			logf("fleet chaos: SIGKILL %s (completed %d units, %d leases held)", name, wh.Completed, wh.Leases)
			cmd.Process.Kill()
			return
		}
	}
}
