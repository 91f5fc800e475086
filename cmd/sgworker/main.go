// Command sgworker runs one stateless fleet worker against an sgserve
// coordinator started with -fleet. The worker long-polls the
// coordinator for leases, heartbeats while it executes on the
// deterministic simulation pools, and submits self-verifying result
// artifacts; it owns no queue, cache, or journal, so killing it at any
// moment costs at most one recomputation and never a job.
//
//	sgworker -coordinator http://127.0.0.1:8080
//	sgworker -coordinator http://coord:8080 -name rack3-7
//	sgworker -coordinator http://coord:8080 -http :9100
//
// -http exposes the worker's own telemetry surface (/metrics Prometheus
// exposition, /stats JSON, /debug/pprof) — the per-process view
// that complements the coordinator's fleet-wide aggregate.
//
// SIGTERM/SIGINT stops polling and exits; a job in flight at that
// moment is abandoned and requeues at the coordinator when its lease
// expires.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"safeguard/internal/cliflags"
	"safeguard/internal/fleet"
	"safeguard/internal/telemetry"
)

func main() {
	var (
		coordinator  = flag.String("coordinator", "", "sgserve coordinator base URL (required)")
		name         = flag.String("name", "", "worker name in leases and logs (default host-pid)")
		errorBackoff = flag.Duration("error-backoff", 500*time.Millisecond, "pause after a failed lease poll")
		httpAddr     = flag.String("http", "", "serve /metrics, /stats, /debug on this address (empty = off)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		cliflags.Fail(fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}
	if *coordinator == "" {
		cliflags.Fail(fmt.Errorf("-coordinator is required (the sgserve -fleet base URL)"))
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "sgworker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	reg := telemetry.NewRegistry()
	if *httpAddr != "" {
		bound, shutdown, err := telemetry.ServeHTTP(*httpAddr, reg)
		if err != nil {
			cliflags.Fail(err)
		}
		defer func() { _ = shutdown() }()
		log.Printf("sgworker: telemetry on http://%s (/metrics, /stats, /debug)", bound)
	}
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator:  *coordinator,
		Name:         *name,
		ErrorBackoff: *errorBackoff,
		Telemetry:    reg,
	})
	if err != nil {
		cliflags.Fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("sgworker: %s polling %s", *name, *coordinator)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Fatalf("sgworker: %v", err)
	}
	log.Printf("sgworker: %s stopped", *name)
}
