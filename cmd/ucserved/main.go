// Command ucserved is the long-running measurement daemon: it keeps
// parsed designs, measurement sessions, per-tenant remeasure
// baselines, and the on-disk cache warm across requests, so clients
// pay the cold pipeline once and every later measurement — or
// one-module-edit delta — is answered incrementally.
//
// Endpoints:
//
//	POST /measure    measure a design's units (JSON request and
//	                 response)
//	POST /remeasure  like /measure but against the tenant's rolling
//	                 baseline: only the edit's dirty cone re-measures
//	GET  /metrics    admission, request, session, and cache counters
//	GET  /healthz    200 while serving, 503 once draining
//
// Flags:
//
//	-addr            listen address (default 127.0.0.1:8090)
//	-cache-dir DIR   shared on-disk measurement cache (default
//	                 $UCOMPLEXITY_CACHE; empty = no cache); tenant
//	                 namespaces partition it, so one directory serves
//	                 every tenant without cross-contamination
//	-concurrency N   measurement workers per request (0 = GOMAXPROCS)
//	-max-concurrent  measurement requests admitted at once
//	-queue-depth     admitted-but-waiting bound; beyond it 429
//	-request-timeout per-request wall-clock ceiling (0 = none)
//	-drain-timeout   how long SIGTERM waits for in-flight work
//	-sessions        parsed-design session table bound (LRU beyond)
//	-max-body        request body byte limit
//
// SIGINT/SIGTERM starts a graceful drain: /healthz flips to 503, new
// measurement requests are refused, in-flight requests complete, then
// the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ucserved: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr           = flag.String("addr", "127.0.0.1:8090", "listen address")
		cacheDir       = flag.String("cache-dir", cache.DefaultDir(), "measurement cache directory (default $"+cache.EnvVar+"; empty = no cache)")
		concurrency    = flag.Int("concurrency", 0, "measurement workers per request (0 = GOMAXPROCS)")
		maxConcurrent  = flag.Int("max-concurrent", 2, "measurement requests admitted at once")
		queueDepth     = flag.Int("queue-depth", 8, "admission queue depth (-1 = no queue)")
		requestTimeout = flag.Duration("request-timeout", 0, "per-request wall-clock ceiling (0 = none)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain ceiling on SIGTERM")
		sessions       = flag.Int("sessions", 16, "parsed-design session table bound")
		maxBody        = flag.Int64("max-body", 16<<20, "request body byte limit")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}

	cfg := serve.Config{
		Concurrency:    *concurrency,
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queueDepth,
		RequestTimeout: *requestTimeout,
		MaxSessions:    *sessions,
		Limits:         serve.Limits{MaxBodyBytes: *maxBody},
	}
	if *cacheDir != "" {
		c, err := cache.Open(*cacheDir)
		if err != nil {
			return err
		}
		cfg.Cache = c
		fmt.Fprintf(os.Stderr, "ucserved: caching measurements in %s\n", *cacheDir)
	}

	srv := serve.New(cfg)
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}

	// The "listening on" line is the readiness contract: the process
	// smoke test (and any supervisor) waits for it before connecting.
	fmt.Printf("ucserved: listening on http://%s\n", lis.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	served := make(chan error, 1)
	go func() { served <- hs.Serve(lis) }()

	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "ucserved: draining")
	srv.StartDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "ucserved: drained")
	return nil
}
