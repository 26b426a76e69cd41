// Command anonnetd is the anonnet simulation service: a long-running
// daemon that accepts simulation jobs over HTTP/JSON, executes them on a
// worker pool through the §2.2 round engines, caches results by canonical
// spec hash, and streams round-by-round convergence as NDJSON.
//
// Start it and submit an average-on-a-ring job:
//
//	anonnetd -addr :8080 &
//	curl -s localhost:8080/v1/jobs -d '{
//	  "graph": {"builder": "ring", "n": 16},
//	  "kind": "od", "function": "average"
//	}'
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -N localhost:8080/v1/jobs/j000001/stream
//
// SIGINT/SIGTERM shut the daemon down gracefully: the listener stops and,
// at the same time, with -data-dir running jobs flush their engine state
// to checkpoints (their watch streams end with the interrupted event) and
// queued jobs stay in the log, both resuming on the next boot; without a
// store the queue drains in-flight jobs up to -grace and remaining jobs
// are canceled.
//
// With -data-dir the daemon is durable: every job transition lands in an
// append-only log, results are served from disk across restarts, and
// /metrics exposes Prometheus-format counters, store gauges, and job
// latency histograms. -tenant-rps puts the submit paths behind
// per-tenant token buckets keyed by the X-Tenant header.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"anonnet/internal/metrics"
	"anonnet/internal/quota"
	"anonnet/internal/service"
	"anonnet/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "anonnetd:", err)
		os.Exit(1)
	}
}

// run boots the daemon on the command-line arguments args and serves
// until a signal or a serve error. It binds -addr before it opens
// -data-dir: a daemon that cannot listen returns the bind error having
// touched nothing, where recovering first would run (and could fail for
// good) the recovered jobs on its way out. A serve error shuts the daemon
// down as a signal does, flushing running jobs with -data-dir.
func run(args []string) error {
	fs := flag.NewFlagSet("anonnetd", flag.ExitOnError)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		workers = fs.Int("workers", 0, "worker pool size (0: GOMAXPROCS)")
		queue   = fs.Int("queue", 64, "bounded job-queue depth")
		timeout = fs.Duration("timeout", 2*time.Minute, "per-job deadline")
		grace   = fs.Duration("grace", 30*time.Second, "shutdown drain budget before in-flight jobs are canceled")
		every   = fs.Int("every", 1, "publish stream progress every k rounds")
		pprofOn = fs.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/ (off by default)")

		dataDir     = fs.String("data-dir", "", "durable store directory (empty: ephemeral, no persistence)")
		syncEvery   = fs.Bool("sync", false, "fsync the job log after every append (with -data-dir)")
		ckptEvery   = fs.Int("ckpt-every", 50, "checkpoint running jobs every k rounds (with -data-dir)")
		tenantRPS   = fs.Float64("tenant-rps", 0, "per-tenant submit rate limit in requests/second (0: disabled)")
		tenantBurst = fs.Int("tenant-burst", 10, "per-tenant submit burst ceiling (with -tenant-rps)")

		topoBytes = fs.Int64("topo-cache-bytes", 0, "shared topology-snapshot cache budget in bytes (0: default 256 MiB)")

		breakerK    = fs.Int("breaker-threshold", 0, "consecutive persist failures before degraded mode (0: default 5, <0: disabled)")
		breakerCool = fs.Duration("breaker-cooldown", 0, "degraded-mode dwell before a half-open store probe (0: default 3s)")
	)
	fs.Parse(args)
	if *topoBytes < 0 {
		return fmt.Errorf("-topo-cache-bytes %d: want a budget ≥ 0 (0: default)", *topoBytes)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	var st *store.Store
	if *dataDir != "" {
		st, err = store.Open(*dataDir, store.Options{Sync: *syncEvery})
		if err != nil {
			return err
		}
		defer st.Close()
	}
	jobLatency := metrics.NewHistogram("anonnetd_job_duration_seconds",
		"Wall-clock seconds from job start to terminal state.", nil)
	lim := quota.New(*tenantRPS, *tenantBurst)

	svc := service.New(service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		JobTimeout:       *timeout,
		ProgressEvery:    *every,
		Store:            st,
		CheckpointEvery:  *ckptEvery,
		JobLatency:       jobLatency,
		BreakerThreshold: *breakerK,
		BreakerCooldown:  *breakerCool,
		TopoCacheBytes:   *topoBytes,
	})
	if st != nil {
		n, err := svc.Recover()
		if err != nil {
			return fmt.Errorf("recovering jobs from %s: %w", *dataDir, err)
		}
		if n > 0 {
			// Recover re-registers every job the log holds unfinished:
			// queued, running at a crash, or interrupted.
			log.Printf("anonnetd: recovered %d unfinished job(s) from %s", n, *dataDir)
		}
	}

	srv := &http.Server{
		Handler: newMux(svc, muxOptions{
			pprof:   *pprofOn,
			metrics: newMetricsRegistry(svc, st, lim, jobLatency),
			quota:   lim,
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("anonnetd: listening on %s (workers=%d queue=%d timeout=%v)",
			ln.Addr(), svc.Stats().Workers, *queue, *timeout)
		errCh <- srv.Serve(ln)
	}()

	var serveErr error
	select {
	case serveErr = <-errCh:
		log.Printf("anonnetd: serving failed, shutting down (grace %v): %v", *grace, serveErr)
	case <-ctx.Done():
		log.Printf("anonnetd: shutting down, draining in-flight jobs (grace %v)", *grace)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	shutdown(shutdownCtx, srv, svc, *dataDir)
	if serveErr == nil {
		serveErr = <-errCh
	}
	if !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return nil
}

// shutdown stops the HTTP server and the service together within ctx. The
// server stops accepting and drains its connections while the service
// flushes (with a data dir: running jobs checkpoint and end interrupted,
// queued jobs stay queued in the log, and the next boot's Recover resumes
// all of them) or drains (without one: in-flight jobs run on). Jobs still
// running when ctx expires are canceled. The two run together because an
// open NDJSON stream of a running job never goes idle: drained first, the
// server would wait out the whole grace on it, and the service would then
// get an expired context and cancel the job. Flushed, the job ends
// interrupted, its stream sends that event and closes, and the server's
// drain completes. dataDir only names the directory in the log.
func shutdown(ctx context.Context, srv *http.Server, svc *service.Service, dataDir string) {
	httpDone := make(chan error, 1)
	go func() { httpDone <- srv.Shutdown(ctx) }()
	switch err := svc.Shutdown(ctx); {
	case err != nil:
		log.Printf("anonnetd: grace expired, canceled the jobs still running: %v", err)
	case dataDir != "":
		log.Printf("anonnetd: flushed state to %s (%d interrupted)", dataDir, svc.Stats().Interrupted)
	default:
		log.Printf("anonnetd: drained cleanly")
	}
	if err := <-httpDone; err != nil {
		log.Printf("anonnetd: http shutdown: %v", err)
	}
}
