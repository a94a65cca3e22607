package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
)

// LocalOptions configures RunLocal.
type LocalOptions struct {
	// Campaign is the validated manifest.
	Campaign Campaign
	// Workers is the fleet size (default 4).
	Workers int
	// LedgerPath is the checkpoint file results merge into (required).
	LedgerPath string
}

// RunLocal runs a complete sharded campaign on this machine: it starts
// a coordinator on a loopback port, runs the workers as goroutines that
// speak the same HTTP protocol a remote worker would, waits for every
// point to settle, and returns with the ledger closed and ready for the
// merge pass. A fail-fast failure from any worker stops the campaign and
// is returned.
func RunLocal(ctx context.Context, lo LocalOptions) (Snapshot, error) {
	if lo.Workers <= 0 {
		lo.Workers = 4
	}
	coord, err := NewCoordinator(CoordinatorConfig{Campaign: lo.Campaign, LedgerPath: lo.LedgerPath})
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

	workerCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < lo.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A worker's own error (a lost coordinator, a result it could
			// not post) ends only that worker: its lease lapses and the
			// unit reassigns to the others, as a dead remote worker's
			// would. A fail-fast failure reaches the coordinator, which
			// ends the campaign.
			RunWorker(workerCtx, WorkerConfig{
				Name:        fmt.Sprintf("worker-%d", i),
				Coordinator: url,
			})
		}(i)
	}

	select {
	case <-coord.Done():
		err = coord.Err()
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Idle workers notice Done on their next lease poll; canceling the
	// workers' context unblocks the rest.
	cancel()
	wg.Wait()
	return coord.Snapshot(), err
}
