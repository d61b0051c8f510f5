// Command waved is the long-lived WaveScalar simulation service: an
// HTTP+JSON server exposing the compiler, the WaveCache simulator, and
// bounded corpus sweeps over the experiment harness, built to stay up
// under load it cannot serve.
//
// Usage:
//
//	waved [-addr :8335] [-cache-dir DIR]
//	      [-rate 50] [-burst 100] [-concurrency N] [-queue 4N]
//	      [-deadline 10s] [-max-deadline 60s] [-max-cycles 500000000]
//	      [-sweep-max 256] [-compiled 256]
//	      [-drain-budget 10s] [-drain-grace 2s]
//	      [-janitor 10m] [-prune age=24h,size=1GiB] [-idle-tenant 1h]
//
// Endpoints (see DESIGN.md §9 and the README "Serving" section):
//
//	POST /v1/simulate  one WaveCache simulation (JSON body)
//	POST /v1/compile   compile only: checksum and static shape
//	POST /v1/sweep     bounded corpus differential sweep
//	GET  /v1/stats     per-tenant service metrics (?format=json for JSON)
//	GET  /v1/healthz   200 serving / 503 draining
//
// Tenancy travels in the X-Tenant header; each tenant has its own token
// bucket and latency window. Overload sheds with structured 429/503
// bodies, request deadlines cancel simulations mid-run, and -cache-dir
// makes completed results retry-safe across identical requests.
//
// On SIGTERM or SIGINT, waved drains: new work is refused with 503
// draining, in-flight work gets -drain-budget to finish before being
// cancelled, and the final metrics tables are flushed to stderr. Exit is
// 0 after a clean drain, 1 if work had to be abandoned.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wavescalar/internal/cli"
	"wavescalar/internal/harness"
	"wavescalar/internal/serve"
)

func main() {
	def := serve.DefaultConfig()
	addr := flag.String("addr", ":8335", "listen address")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory (enables idempotent retries and resumable sweeps)")
	rate := flag.Float64("rate", def.TenantRate, "per-tenant admission rate, requests/sec (<= 0 disables rate limiting)")
	burst := flag.Int("burst", def.TenantBurst, "per-tenant token bucket capacity")
	concurrency := flag.Int("concurrency", def.MaxConcurrent, "simultaneously running requests")
	queue := flag.Int("queue", def.MaxQueue, "admitted requests waiting for a slot before load is shed")
	deadline := flag.Duration("deadline", def.DefaultDeadline, "default per-request deadline")
	maxDeadline := flag.Duration("max-deadline", def.MaxDeadline, "maximum per-request deadline a client may ask for")
	maxCycles := flag.Int64("max-cycles", def.MaxCycles, "hard simulated-time watchdog cap per request")
	sweepMax := flag.Int("sweep-max", def.SweepMax, "maximum corpus size of one sweep request")
	compiled := flag.Int("compiled", def.MaxCompiled, "warm compiled-program cache entries")
	drainBudget := flag.Duration("drain-budget", 10*time.Second, "how long in-flight work may finish after SIGTERM before being cancelled")
	drainGrace := flag.Duration("drain-grace", def.DrainGrace, "how long cancelled work may unwind before waved gives up")
	janitor := flag.Duration("janitor", 10*time.Minute, "housekeeping interval (0 disables the janitor)")
	prune := flag.String("prune", "", "cache prune bounds applied by the janitor: age=DUR,size=BYTES (requires -cache-dir)")
	idleTenant := flag.Duration("idle-tenant", time.Hour, "forget tenants idle longer than this (0 keeps them forever)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: waved [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	cfg := def
	cfg.TenantRate = *rate
	cfg.TenantBurst = *burst
	cfg.MaxConcurrent = *concurrency
	cfg.MaxQueue = *queue
	cfg.DefaultDeadline = *deadline
	cfg.MaxDeadline = *maxDeadline
	cfg.MaxCycles = *maxCycles
	cfg.SweepMax = *sweepMax
	cfg.MaxCompiled = *compiled
	cfg.DrainGrace = *drainGrace
	cfg.CacheDir = *cacheDir
	cfg.Log = os.Stderr

	var pruneAge time.Duration
	var pruneBytes int64
	if *prune != "" {
		if *cacheDir == "" {
			fatal(errors.New("-prune requires -cache-dir"))
		}
		var err error
		if pruneAge, pruneBytes, err = harness.ParsePruneSpec(*prune); err != nil {
			fatal(err)
		}
	}

	s, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	if *janitor > 0 {
		s.StartJanitor(*janitor, pruneAge, pruneBytes, *idleTenant)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "waved: serving on %s (%d slots, queue %d, %g req/s/tenant)\n",
		*addr, cfg.MaxConcurrent, cfg.MaxQueue, cfg.TenantRate)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "waved: received %v, draining (budget %v)\n", sig, *drainBudget)
	case err := <-serveErr:
		fatal(err)
	}

	drainErr := s.Drain(*drainBudget)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "waved: http shutdown: %v\n", err)
	}
	s.FlushMetrics(os.Stderr)
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "waved: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "waved: drained cleanly")
}

func fatal(err error) { cli.Fatal("waved", err) }
