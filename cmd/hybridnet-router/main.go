// Command hybridnet-router is the sharded serving plane: it spreads the
// hybridnetd HTTP API across N worker processes, each running its own model
// replica and micro-batching scheduler, and presents the same three
// endpoints a single daemon exposes.
//
//	POST /classify        routed to a shard: power-of-two-choices on load,
//	                      scaled by each shard's probed service time,
//	                      round-robin on ties;
//	                      one automatic failover on a dead or load-shedding
//	                      (503) shard for guaranteed and fast requests
//	                      (budget never fails over)
//	GET  /healthz         router + fleet health (503 once no shard is routable)
//	GET  /stats           per-shard serve.Stats plus the serve.Merge aggregate
//	                      (fleet latency quantiles from merged histograms)
//	GET  /metrics         the fleet view in Prometheus text format: aggregate
//	                      serve counters plus per-shard breaker/restart series
//	GET  /debug/requests  fleet-wide flight recorder (every shard's dump
//	                      merged with the router's own)
//
// Every proxied /classify carries an X-Hybridnet-Trace ID (minted at this
// edge unless the client sent one) to the worker and back, with the worker's
// span breakdown in X-Hybridnet-Spans and the router's own attempts in
// X-Hybridnet-Router-Spans. The request's service class rides
// X-Hybridnet-Class (absent = -default-class, resolved once at this edge
// and forwarded in canonical form).
//
// The router either spawns and supervises its own workers (each started
// with -addr 127.0.0.1:0; the bound port is read from the worker's stdout
// report line) or attaches to workers already running elsewhere:
//
//	Spawn:   hybridnet-router -shards 4 -worker-bin ./hybridnetd -worker-args '-demo'
//	Attach:  hybridnet-router -attach http://10.0.0.1:8080,http://10.0.0.2:8080
//
// Shards are health-checked continuously; a shard that keeps failing is
// circuit-broken out of placement and re-admitted on the first successful
// probe. A spawned worker that dies is respawned with exponential backoff
// (-restart-backoff, up to -restart-max consecutive attempts before the
// shard is declared permanently down), so a SIGKILLed worker rejoins the
// fleet without operator action. SIGINT/SIGTERM drains the fleet: spawned
// workers get SIGTERM and drain their own schedulers before the router
// exits.
//
// This file is flag parsing and wiring: the router is internal/shard, the
// wire types internal/api, the listen → signal → drain lifecycle
// cli.ServeUntilSignal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // usage already printed; -h is not an error
		}
		fmt.Fprintln(os.Stderr, "hybridnet-router:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hybridnet-router", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "router listen address")
	attach := fs.String("attach", "", "comma-separated worker base URLs to attach to (no spawning)")
	workerBin := fs.String("worker-bin", "", "hybridnetd binary to spawn workers from")
	shards := fs.Int("shards", 2, "number of workers to spawn (spawn mode)")
	workerArgs := fs.String("worker-args", "-demo", "space-separated extra args for each spawned worker")
	healthInterval := fs.Duration("health-interval", 250*time.Millisecond, "shard health-probe period")
	breaker := fs.Int("breaker", 3, "consecutive failures before a shard is circuit-broken")
	timeout := fs.Duration("timeout", 30*time.Second, "per-attempt proxy timeout")
	restartMax := fs.Int("restart-max", 5, "consecutive respawn attempts before a dead worker is permanently down (0 = default, negative disables respawn)")
	restartBackoff := fs.Duration("restart-backoff", 250*time.Millisecond, "initial respawn backoff (doubles per consecutive attempt)")
	debugAddr := fs.String("debug-addr", "", "optional second listen address exposing net/http/pprof (empty = off)")
	traceSample := fs.Float64("trace-sample", 0, "fraction of proxied requests logged with their span breakdown (0 = off, 1 = all)")
	traceDepth := fs.Int("trace-depth", obs.DefaultRecorderDepth, "flight recorder depth: K slowest + K most recent traces kept for /debug/requests")
	logLevel := fs.String("log-level", "info", "log verbosity: debug|info|warn|error")
	defaultClass := fs.String("default-class", "guaranteed", "service class assumed when a request has no X-Hybridnet-Class header (guaranteed|fast|budget)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)
	defClass, err := serve.ParseClass(*defaultClass)
	if err != nil {
		return fmt.Errorf("-default-class: %w", err)
	}

	cfg := shard.Config{
		HealthInterval:   *healthInterval,
		BreakerThreshold: *breaker,
		RequestTimeout:   *timeout,
		RestartMax:       *restartMax,
		RestartBackoff:   *restartBackoff,
		Log:              logger,
		TraceDepth:       *traceDepth,
		TraceSample:      *traceSample,
		DefaultClass:     defClass,
	}
	var router *shard.Router
	switch {
	case *attach != "" && *workerBin != "":
		return fmt.Errorf("-attach and -worker-bin are mutually exclusive")
	case *attach != "":
		router, err = shard.New(splitList(*attach), cfg)
	case *workerBin != "":
		router, err = shard.Spawn(*workerBin, *shards, strings.Fields(*workerArgs), cfg)
	default:
		return fmt.Errorf("need -worker-bin (spawn workers) or -attach (use running workers)")
	}
	if err != nil {
		return err
	}
	// Whatever exit path run() takes from here, the spawned workers must not
	// be orphaned. Shutdown is idempotent, so the deliberate drain below and
	// this safety net coexist.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := router.Shutdown(ctx); err != nil {
			logger.Warn("shutdown", "err", err)
		}
	}()

	readyCtx, readyCancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = router.WaitReady(readyCtx)
	readyCancel()
	if err != nil {
		return err
	}
	return cli.ServeUntilSignal(logger, *addr, *debugAddr, router.Mux(), 30*time.Second,
		func(bound string) error {
			logger.Info("listening", "addr", bound, "shards", router.Shards(),
				"probe", *healthInterval, "breaker", *breaker)
			return nil
		},
		func(ctx context.Context) error {
			rep := router.Report(ctx)
			if err := router.Shutdown(ctx); err != nil {
				return err
			}
			logger.Info("drained", "proxied", rep.Proxied, "failovers", rep.Failovers,
				"completed", rep.Aggregate.Completed, "batches", rep.Aggregate.Batches,
				"mean_batch", rep.Aggregate.MeanBatch)
			return nil
		})
}

// splitList splits a comma-separated flag value, tolerating whitespace and
// empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
