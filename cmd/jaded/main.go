// Command jaded serves the experiment engine over HTTP/JSON: submit
// jade-job/v1 jobs, poll their status, and read live serving metrics.
// Results are memoized — the machine models are deterministic, so a
// repeated job spec is a cache hit answered instantly with the
// byte-identical jadebench/v1 document.
//
// Usage:
//
//	jaded [-addr 127.0.0.1:8274] [-workers 2] [-queue 32] [-cache 128] [-job-timeout 2m] [-parallel 0]
//	      [-breaker-threshold 5] [-breaker-cooldown 30s]
//	      [-log-level info] [-log-format json] [-spans] [-pprof] [-retention 4096]
//	      [-slo-window 0] [-slo-availability 0] [-slo-p99 0]
//
// Endpoints:
//
//	POST /v1/jobs            submit a job; ?sync=1 blocks (small scale only)
//	GET  /v1/jobs/{id}       job status, plus the result document when done
//	GET  /v1/jobs/{id}/trace jade-span/v1 lifecycle trace (?format=perfetto)
//	GET  /v1/experiments     experiment catalog
//	GET  /healthz            liveness + SLO budget (503 when exhausted)
//	GET  /metricz            queue depth, worker utilization, cache hit
//	                         rate, per-experiment latency p50/p95/p99
//	                         (?format=prom for Prometheus text)
//
//	GET  /debug/pprof/...    runtime profiles (only with -pprof)
//
// Job specs opt into the granularity pass per run: RunSpec.Fusion
// replays the fused task graph (work-free runs only) and
// RunSpec.Coalescing batches same-destination fetches on the ipsc
// machine. Both knobs are part of the canonical spec hash, so cached
// results never cross knob settings.
//
// Observability: -log-level/-log-format turn on structured request
// and job-lifecycle logs on stderr (trace-ID-correlated), -spans
// captures per-request span trees, and the -slo-* flags arm the
// rolling-window SLO tracker. Every request carries an X-Jade-Trace
// ID — caller-supplied or minted — echoed in the response.
//
// SIGINT/SIGTERM shut down gracefully: running jobs drain, queued
// jobs fail with a clear status. See EXPERIMENTS.md ("Serving" and
// "Request traces") for the request and response schemas.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/svcobs"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8274", "listen address (host:port; port 0 picks a free port)")
		workers      = flag.Int("workers", 2, "concurrent experiment workers")
		queueCap     = flag.Int("queue", 32, "job queue capacity (submissions beyond it get HTTP 429)")
		cacheEntries = flag.Int("cache", 128, "result cache entries (negative disables caching)")
		jobTimeout   = flag.Duration("job-timeout", 2*time.Minute, "per-job deadline covering queue wait plus execution")
		parallel     = flag.Int("parallel", 0, "fan-out width for the runs inside one job (0 = GOMAXPROCS, 1 = serial)")
		brkThreshold = flag.Int("breaker-threshold", 5, "consecutive failures that trip an experiment's circuit breaker (negative disables)")
		brkCooldown  = flag.Duration("breaker-cooldown", 30*time.Second, "how long a tripped circuit refuses submissions before a half-open probe")
		retention    = flag.Int("retention", 4096, "terminal jobs kept pollable, oldest evicted first (negative keeps none)")

		logLevel  = flag.String("log-level", "", "structured log level: debug, info, warn, error (empty disables logging)")
		logFormat = flag.String("log-format", "json", "structured log format: json or text")
		spans     = flag.Bool("spans", false, "capture per-request lifecycle span trees (GET /v1/jobs/{id}/trace)")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		sloWindow       = flag.Duration("slo-window", 0, "rolling SLO window (0 disables SLO tracking)")
		sloAvailability = flag.Float64("slo-availability", 0, "availability objective in (0,1), e.g. 0.999")
		sloP99          = flag.Duration("slo-p99", 0, "p99 job-latency objective (0 = latency not tracked against an objective)")
	)
	flag.Parse()

	cfg := serve.Config{
		Workers:          *workers,
		QueueCap:         *queueCap,
		CacheEntries:     *cacheEntries,
		JobTimeout:       *jobTimeout,
		RunParallelism:   *parallel,
		BreakerThreshold: *brkThreshold,
		BreakerCooldown:  *brkCooldown,
		JobRetention:     *retention,
		Spans:            *spans,
		SLO: svcobs.SLOConfig{
			Window:             *sloWindow,
			TargetAvailability: *sloAvailability,
			TargetP99:          *sloP99,
		},
	}
	if *logLevel != "" {
		lg, err := svcobs.NewLogger(os.Stderr, *logLevel, *logFormat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jaded: %v\n", err)
			os.Exit(2)
		}
		cfg.Logger = lg
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jaded: %v\n", err)
		os.Exit(1)
	}
	srv := serve.New(cfg)

	var handler http.Handler = srv
	if *pprofOn {
		// pprof mounts beside the API so profiles share the process but
		// skip the tracing middleware (profile scrapes are not jobs).
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
	}

	// The exact address goes to stdout so scripts can scrape the
	// kernel-assigned port when started with :0.
	fmt.Printf("jaded: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "jaded: shutting down — draining running jobs, failing queued ones")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx)
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "jaded: shutdown: %v\n", err)
			os.Exit(1)
		}
	case err := <-serveErr:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "jaded: %v\n", err)
			os.Exit(1)
		}
	}
}
