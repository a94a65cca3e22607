package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"wtcp/internal/experiment"
	"wtcp/internal/serve"
)

// serveFlags declares wtcp serve, the wtcpd service: the simulation
// engine over HTTP as a self-defending service — bounded admission with
// honest Retry-After hints, client deadlines propagated into per-run
// resource budgets, taxonomy-driven load shedding, a content-addressed
// result cache with single-flight dedup, and a graceful drain that
// checkpoints in-flight work so a restart resumes it instead of losing it.
//
//	wtcp serve -data /var/lib/wtcpd            # serve on 127.0.0.1:8787
//	wtcp serve -data d -addr :9000 -slots 4    # wider box
//	curl -XPOST :8787/v1/run -d '{"scenario":{"preset":"wan","mean_bad":"4s"}}'
//	curl ':8787/v1/advise?bad=4s'              # §4.1 packet-size advice
//	curl :8787/healthz                         # engine heartbeat
//
// SIGTERM (or Ctrl-C) drains: admission stops, in-flight requests get
// -drain-grace to finish, then are canceled at a replication boundary
// with their journal entries and finished sweep points intact. SIGUSR1
// dumps the health snapshot to stderr.
func serveFlags(fs *flag.FlagSet) body {
	var (
		addr       = fs.String("addr", "127.0.0.1:8787", "listen address")
		dataDir    = fs.String("data", "", "state directory: result cache, journal, point ledgers, repro bundles (required)")
		slots      = fs.Int("slots", 0, "concurrent run slots, the simulation width: a sweep spreads its replications over the free ones (default 2)")
		queue      = fs.Int("queue", 0, "admission wait-queue depth (default 2x slots)")
		cacheMB    = fs.Int64("cache-mb", 0, "result-cache byte cap in MiB (default 256)")
		deadline   = fs.Duration("deadline", 0, "default per-request execution deadline (default 2m)")
		cooldown   = fs.Duration("cooldown", 0, "scenario-class breaker cooldown (default 30s)")
		retries    = fs.Int("retries", 0, "per-replication retry budget (0 = engine default of 1, negative disables)")
		drainGrace = fs.Duration("drain-grace", 30*time.Second, "how long a drain lets in-flight work finish before checkpoint-cancel")
		statusPath = fs.String("status", "", "also persist the health heartbeat to this JSON file")
	)
	return func(ctx context.Context, _ experiment.Options, stdout, stderr io.Writer) error {
		if *dataDir == "" {
			return errors.New("-data is required (the server's state directory)")
		}
		srv, err := serve.New(serve.Config{
			DataDir:         *dataDir,
			Slots:           *slots,
			QueueDepth:      *queue,
			CacheBytes:      *cacheMB << 20,
			DefaultDeadline: *deadline,
			BreakerCooldown: *cooldown,
			Retries:         *retries,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		defer srv.Health().Heartbeat(*statusPath, stderr)()

		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		resumed := srv.Resume()
		errCh := make(chan error, 1)
		go func() { errCh <- httpSrv.Serve(ln) }()
		fmt.Fprintf(stdout, "wtcp serve: listening on %s (resumed %d journaled request(s))\n", ln.Addr(), resumed)

		select {
		case <-ctx.Done():
			fmt.Fprintf(stdout, "wtcp serve: draining (grace %v)\n", *drainGrace)
			// Order matters: Drain first (admission answers 503, in-flight
			// work finishes or checkpoints), then Shutdown (no new
			// connections), so a drain is observable over HTTP while it runs.
			drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
			srv.Drain(drainCtx)
			cancel()
			shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
			err := httpSrv.Shutdown(shutCtx)
			cancel2()
			fmt.Fprintf(stdout, "wtcp serve: drained\n")
			return err
		case err := <-errCh:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		}
	}
}
