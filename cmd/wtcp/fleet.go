package main

// wtcp fleet runs a sweep campaign sharded across worker processes, with
// lease-based fault tolerance: a crashed, hung, or killed worker's points
// are reassigned, results are recorded exactly once, and the merged
// checkpoint is byte-identical to what the sequential engine would have
// produced.
//
//	wtcp fleet run -campaign campaign.json -ledger sweep.json -workers 4
//	wtcp fleet run -campaign campaign.json -ledger sweep.json -chaos faults.json
//	wtcp fleet coordinate -campaign campaign.json -ledger sweep.json -listen 127.0.0.1:7070
//	wtcp fleet worker -coordinator http://127.0.0.1:7070 -name worker-0
//
// `run` is the one-machine mode: it starts a coordinator on a loopback
// port, spawns N worker subprocesses (re-executing this binary's
// `fleet worker`), and blocks until the campaign completes. `coordinate`
// and `worker` are the split mode for driving the two halves by hand or
// across machines.
//
// After a campaign, the ledger file is an ordinary engine checkpoint:
// point wtcp figures or wtcp report at it (-checkpoint) to render the
// figures from the merged results.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"time"

	"wtcp/internal/chaos"
	"wtcp/internal/experiment"
	"wtcp/internal/fleet"
)

// loadCampaign reads and validates a campaign manifest file.
func loadCampaign(path string) (fleet.Campaign, error) {
	if path == "" {
		return fleet.Campaign{}, fmt.Errorf("a campaign manifest is required (-campaign campaign.json)")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return fleet.Campaign{}, fmt.Errorf("read campaign: %w", err)
	}
	c, err := fleet.ParseCampaign(raw)
	if err != nil {
		return fleet.Campaign{}, fmt.Errorf("campaign %s: %w", path, err)
	}
	return c, nil
}

// loadFaults reads an optional chaos plan for the fleet boundary.
func loadFaults(path string) (*chaos.FleetFaults, error) {
	if path == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read chaos plan: %w", err)
	}
	f, err := chaos.ParseFleet(raw)
	if err != nil {
		return nil, fmt.Errorf("chaos plan %s: %w", path, err)
	}
	return f, nil
}

// fleetRunFlags declares the one-machine mode: coordinator plus N
// subprocess workers, blocking until the campaign settles every point.
func fleetRunFlags(fs *flag.FlagSet) body {
	var (
		campaignPath = fs.String("campaign", "", "campaign manifest JSON (required)")
		ledgerPath   = fs.String("ledger", "", "checkpoint file results merge into (required); rerunning resumes from it")
		workers      = fs.Int("workers", 4, "worker subprocesses to spawn")
		statusPath   = fs.String("status", "", "write the fleet health snapshot JSON to this file as the campaign runs")
		chaosPath    = fs.String("chaos", "", "fleet fault-injection plan JSON (see internal/chaos.FleetFaults)")
		leaseTTL     = fs.Duration("lease-ttl", 0, "lease time-to-live (0 = default 10s)")
		verbose      = fs.Bool("v", false, "log lease traffic and settlements to stderr")
	)
	return func(ctx context.Context, _ experiment.Options, stdout, stderr io.Writer) error {
		campaign, err := loadCampaign(*campaignPath)
		if err != nil {
			return err
		}
		if *ledgerPath == "" {
			return fmt.Errorf("a ledger path is required (-ledger sweep.json)")
		}
		faults, err := loadFaults(*chaosPath)
		if err != nil {
			return err
		}
		self, err := os.Executable()
		if err != nil {
			return fmt.Errorf("locate own binary for worker re-exec: %w", err)
		}
		snap, err := fleet.RunLocal(ctx, fleet.LocalOptions{
			Campaign:   campaign,
			Workers:    *workers,
			LedgerPath: *ledgerPath,
			StatusPath: *statusPath,
			LeaseTTL:   *leaseTTL,
			Faults:     faults,
			Log:        logTo(stderr, *verbose),
			WorkerCommand: func(i int, name, url string) *exec.Cmd {
				// Workers get the same chaos plan: the RPC faults (drop,
				// duplicate, delay) live on the worker's client side, while
				// the kill schedule is executed by the coordinator's watcher.
				wargs := []string{"fleet", "worker", "-coordinator", url, "-name", name}
				if *chaosPath != "" {
					wargs = append(wargs, "-chaos", *chaosPath)
				}
				if *verbose {
					wargs = append(wargs, "-v")
				}
				cmd := exec.Command(self, wargs...)
				cmd.Stderr = stderr
				return cmd
			},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "campaign complete: %d/%d points settled (%d quarantined, %d reassigned, %d stolen, %d duplicate posts dropped)\n",
			snap.Settled, snap.TotalUnits, snap.Quarantined, len(snap.Reassigned), snap.Stolen, snap.Duplicates)
		fmt.Fprintf(stdout, "ledger: %s (render with: wtcp figures -checkpoint %s, or wtcp report -checkpoint %s)\n",
			*ledgerPath, *ledgerPath, *ledgerPath)
		return nil
	}
}

// fleetCoordinateFlags declares the coordinator half: serve it on a fixed
// address until the campaign completes or the context ends.
func fleetCoordinateFlags(fs *flag.FlagSet) body {
	var (
		campaignPath = fs.String("campaign", "", "campaign manifest JSON (required)")
		ledgerPath   = fs.String("ledger", "", "checkpoint file results merge into (required)")
		listen       = fs.String("listen", "127.0.0.1:7070", "address to serve the fleet API on")
		statusPath   = fs.String("status", "", "write the fleet health snapshot JSON to this file")
		leaseTTL     = fs.Duration("lease-ttl", 0, "lease time-to-live (0 = default 10s)")
	)
	return func(ctx context.Context, _ experiment.Options, _, stderr io.Writer) error {
		campaign, err := loadCampaign(*campaignPath)
		if err != nil {
			return err
		}
		if *ledgerPath == "" {
			return fmt.Errorf("a ledger path is required (-ledger sweep.json)")
		}
		coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
			Campaign:   campaign,
			LedgerPath: *ledgerPath,
			StatusPath: *statusPath,
			LeaseTTL:   *leaseTTL,
			Log:        logTo(stderr, true),
		})
		if err != nil {
			return err
		}
		defer coord.Close()
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		srv := &http.Server{Handler: coord.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(stderr, "wtcp fleet: coordinating on http://%s\n", ln.Addr())
		select {
		case <-coord.Done():
			// Give in-flight result posts a moment to drain before the server
			// goes away.
			time.Sleep(100 * time.Millisecond)
			return coord.Err()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// fleetWorkerFlags declares the worker half: join a coordinator and
// process work units until told the campaign is done.
func fleetWorkerFlags(fs *flag.FlagSet) body {
	var (
		coordinator = fs.String("coordinator", "", "coordinator base URL (required), e.g. http://127.0.0.1:7070")
		name        = fs.String("name", "", "worker name (default worker-<pid>)")
		chaosPath   = fs.String("chaos", "", "fleet fault-injection plan JSON applied to this worker's RPCs")
		verbose     = fs.Bool("v", false, "log leases and settlements to stderr")
	)
	return func(ctx context.Context, _ experiment.Options, _, stderr io.Writer) error {
		if *coordinator == "" {
			return fmt.Errorf("a coordinator URL is required (-coordinator http://host:port)")
		}
		if *name == "" {
			*name = fmt.Sprintf("worker-%d", os.Getpid())
		}
		faults, err := loadFaults(*chaosPath)
		if err != nil {
			return err
		}
		return fleet.RunWorker(ctx, fleet.WorkerConfig{
			Name:        *name,
			Coordinator: *coordinator,
			Health:      experiment.NewHealth(),
			HTTPClient:  fleet.NewFaultClient(faults, int64(os.Getpid())),
			Log:         logTo(stderr, *verbose),
		})
	}
}

// logTo is the fleet's line logger: one line per call on w, or nothing.
func logTo(w io.Writer, on bool) func(string, ...any) {
	if !on {
		return func(string, ...any) {}
	}
	return func(format string, a ...any) { fmt.Fprintf(w, format+"\n", a...) }
}
