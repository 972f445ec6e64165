// Command jaderouter fronts a set of jaded backends as one service:
// canonical job-spec keys are consistent-hashed across the backends
// (keeping each shard's result cache hot), every backend is
// health-checked through a healthy → degraded → ejected → probing
// state machine, slow requests hedge to the next ring replica, failed
// backends are ejected with their keys remapped, and when every
// replica for a key is down the router serves the last known result
// from its stale cache (marked X-Jade-Stale: true) instead of a 5xx.
//
// Usage:
//
//	jaderouter -backends http://h1:8274,http://h2:8274 [-addr 127.0.0.1:8275]
//	           [-hedge-after 25ms] [-request-timeout 30s]
//	           [-probe-interval 2s] [-probe-timeout 1s]
//	           [-fall 3] [-rise 2] [-eject-cooldown 5s]
//	           [-spans] [-log-level info] [-log-format json]
//	jaderouter -embed 3 [-workers 2] [-queue 32] ...
//
// -backends takes comma-separated jaded base URLs (optionally
// name=url to pin ring identities; defaults to the URL, which keeps
// placement stable across router restarts as long as addresses are).
// -embed N instead boots N in-process jaded backends behind the
// router in one process — a self-contained cluster for demos and
// smoke tests. The ring's 64 virtual nodes per backend, the
// 512-entry stale cache and the bounded-load demotion at 2×mean+1
// in-flight requests are fixed.
//
// The job API is jaded's: the router's front is a serve.Server that
// routes every job (no result cache, no breaker), with -request-timeout
// as its job deadline and its Retry-After on a timed-out sync job.
//
// Endpoints:
//
//	POST /v1/jobs            submit (?sync=1 blocks, else 202); a routed
//	                         job's backend/hedged/stale fields repeat as
//	                         X-Jade-Backend, X-Jade-Hedged, X-Jade-Stale
//	GET  /v1/jobs/{id}       status poll (no backend involved)
//	GET  /v1/jobs/{id}/trace jade-span/v1, attempts under execute (-spans)
//	GET  /v1/experiments     jade-catalog/v1
//	GET  /healthz            jaderouter-health/v1 per-backend states
//	GET  /metricz            jaderouter-metrics/v1 (?format=prom)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/svcobs"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8275", "listen address (host:port; port 0 picks a free port)")
		backendList = flag.String("backends", "", "comma-separated jaded base URLs, each optionally name=url")
		embed       = flag.Int("embed", 0, "boot this many in-process jaded backends instead of -backends")
		workers     = flag.Int("workers", 2, "workers per embedded backend (-embed only)")
		queueCap    = flag.Int("queue", 32, "queue capacity per embedded backend (-embed only)")

		hedgeAfter    = flag.Duration("hedge-after", 25*time.Millisecond, "hedge delay before latency history exists")
		reqTimeout    = flag.Duration("request-timeout", 30*time.Second, "end-to-end routed request timeout (async jobs included)")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "active health-probe cadence (negative disables)")
		probeTimeout  = flag.Duration("probe-timeout", time.Second, "per-probe timeout")
		fall          = flag.Int("fall", 3, "consecutive failures that eject a backend")
		rise          = flag.Int("rise", 2, "consecutive probe successes that restore an ejected backend")
		ejectCooldown = flag.Duration("eject-cooldown", 5*time.Second, "sit-out before an ejected backend is probed again")

		spans     = flag.Bool("spans", false, "capture job traces with their routing attempts (GET /v1/jobs/{id}/trace)")
		logLevel  = flag.String("log-level", "", "structured log level: debug, info, warn, error (empty disables)")
		logFormat = flag.String("log-format", "json", "structured log format: json or text")
	)
	flag.Parse()

	cfg := router.Config{
		HedgeAfter:     *hedgeAfter,
		RequestTimeout: *reqTimeout,
		Health: router.HealthConfig{
			ProbeInterval: *probeInterval,
			ProbeTimeout:  *probeTimeout,
			FallThreshold: *fall,
			RiseThreshold: *rise,
			EjectCooldown: *ejectCooldown,
		},
	}
	if *logLevel != "" {
		lg, err := svcobs.NewLogger(os.Stderr, *logLevel, *logFormat)
		if err != nil {
			fatal(err)
		}
		cfg.Logger = lg
	}

	var backends []router.Backend
	var embedded []*serve.Server
	switch {
	case *embed > 0 && *backendList != "":
		fatal(fmt.Errorf("use either -backends or -embed, not both"))
	case *embed > 0:
		for i := 0; i < *embed; i++ {
			srv := serve.New(serve.Config{Workers: *workers, QueueCap: *queueCap})
			embedded = append(embedded, srv)
			backends = append(backends, router.NewLocalBackend(fmt.Sprintf("jaded-%d", i), srv))
		}
	case *backendList != "":
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
		for _, entry := range strings.Split(*backendList, ",") {
			entry = strings.TrimSpace(entry)
			if entry == "" {
				continue
			}
			name, url, ok := strings.Cut(entry, "=")
			if !ok {
				name, url = entry, entry
			}
			backends = append(backends, router.NewHTTPBackend(name, url, client))
		}
	default:
		fatal(fmt.Errorf("no backends: pass -backends url,... or -embed N"))
	}

	rt, err := router.NewRouter(cfg, backends...)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The exact address goes to stdout so scripts can scrape the
	// kernel-assigned port when started with :0.
	fmt.Printf("jaderouter: listening on http://%s (%d backends)\n", ln.Addr(), len(backends))

	front := rt.Front(*spans)
	hs := &http.Server{Handler: router.NewHandler(rt, front)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "jaderouter: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx)
		_ = front.Shutdown(sctx)
		rt.Close()
		for _, srv := range embedded {
			_ = srv.Shutdown(sctx)
		}
	case err := <-serveErr:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "jaderouter: %v\n", err)
	os.Exit(1)
}
