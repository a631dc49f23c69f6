// Command hybridnetd serves hybrid classifications over HTTP. It is the
// asynchronous front-end of the stack: every POST /classify is a single
// image; the internal/serve Scheduler coalesces concurrent requests into
// micro-batches and flushes them to a persistent core.BatchClassifier
// worker pool. Overload surfaces as fast 503s (bounded queue), slow
// requests as 504s (per-request deadline), and SIGINT/SIGTERM drains the
// queue before exiting.
//
// This file is flag parsing and wiring: the HTTP server is internal/worker,
// the wire types internal/api, the listen → signal → drain lifecycle
// cli.ServeUntilSignal.
//
// API:
//
//	POST /classify        {"sign":"stop","seed":7}  or  {"image_png":"<base64>"}
//	GET  /healthz         liveness + queue depth
//	GET  /stats           scheduler counters: queue depth, batch-size histogram,
//	                      p50/p99 latency, backend utilisation
//	GET  /metrics         the same counters in Prometheus text format
//	GET  /debug/requests  flight recorder: K slowest + K most recent traces
//
// Every /classify response carries X-Hybridnet-Trace (the request's trace
// ID, minted here unless the caller — typically hybridnet-router — sent one)
// and X-Hybridnet-Spans (the per-stage timing breakdown). -debug-addr
// optionally exposes net/http/pprof on a second listener.
//
// Run a trained model:   hybridnetd -model model.json
// Run without a model:   hybridnetd -demo       (untrained weights; the
// reliable path, qualifier and decisions are real — for smoke and load
// testing only)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/worker"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // usage already printed; -h is not an error
		}
		fmt.Fprintln(os.Stderr, "hybridnetd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hybridnetd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	modelPath := fs.String("model", "", "onnxlite model path (a version-2 document, as hybridnet train writes)")
	demo := fs.Bool("demo", false, "serve an untrained demo network instead of -model")
	workers := fs.Int("workers", 0, "inference pool size (0 = all cores)")
	subBatch := fs.Int("subbatch", 0, "images per worker sub-batch in the batched CNN stage (0 = batch/workers)")
	maxBatch := fs.Int("max-batch", 8, "micro-batch flush threshold")
	maxDelay := fs.Duration("max-delay", 2*time.Millisecond, "max wait for a batch to fill")
	queueSize := fs.Int("queue", 64, "admission-control queue bound per service class")
	classQueues := fs.String("class-queues", "", "per-class queue bound overrides, e.g. guaranteed=64,fast=128,budget=32 (unset classes inherit -queue)")
	defaultClass := fs.String("default-class", "guaranteed", "service class for requests without an X-Hybridnet-Class header (guaranteed|fast|budget)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request deadline")
	size := fs.Int("size", 32, "input size for -demo and server-side rendering")
	seed := fs.Int64("seed", 1, "random seed")
	debugAddr := fs.String("debug-addr", "", "optional second listen address exposing net/http/pprof (empty = off)")
	traceSample := fs.Float64("trace-sample", 0, "fraction of traced requests logged with their span breakdown (0 = off, 1 = all)")
	traceDepth := fs.Int("trace-depth", obs.DefaultRecorderDepth, "flight recorder depth: K slowest + K most recent traces kept for /debug/requests")
	logLevel := fs.String("log-level", "info", "log verbosity: debug|info|warn|error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	var h *core.HybridNetwork
	var err error
	switch {
	case *demo && *modelPath != "":
		return fmt.Errorf("-demo and -model are mutually exclusive")
	case *demo:
		h, _, err = cli.DemoHybrid(*size, 16, *seed)
	case *modelPath != "":
		h, _, err = cli.LoadHybrid(*modelPath, *seed)
	default:
		return fmt.Errorf("need -model or -demo")
	}
	if err != nil {
		return err
	}
	bc, err := cli.NewBatchClassifier(h, *workers, *subBatch)
	if err != nil {
		return err
	}
	defClass, err := serve.ParseClass(*defaultClass)
	if err != nil {
		return err
	}
	classBounds, err := serve.ParseClassInts(*classQueues)
	if err != nil {
		return fmt.Errorf("-class-queues: %w", err)
	}
	sched, err := serve.New(bc, serve.Config{
		MaxBatch: *maxBatch, MaxDelay: *maxDelay, QueueSize: *queueSize,
		ClassQueues: classBounds,
	})
	if err != nil {
		return err
	}

	srv := worker.New(sched, *timeout, *size, defClass, logger,
		obs.NewTraceSink(logger, "request", *traceDepth, *traceSample))
	return cli.ServeUntilSignal(logger, *addr, *debugAddr, srv.Mux(), 15*time.Second,
		func(bound string) error {
			logger.Info("listening",
				"addr", bound, "workers", bc.Workers(), "subbatch", bc.SubBatch(),
				"max_batch", *maxBatch, "max_delay", *maxDelay, "queue", *queueSize,
				"gemm", tensor.GemmKernel())
			// Worker mode: report the bound address on stdout so a supervisor
			// (hybridnet-router) that started us with -addr 127.0.0.1:0 can
			// learn the kernel-assigned port. Logs go to stderr, so this is
			// the only stdout traffic.
			if err := cli.WriteAddrReport(os.Stdout, bound); err != nil {
				return fmt.Errorf("report bound address: %w", err)
			}
			return nil
		},
		func(ctx context.Context) error {
			if err := sched.Shutdown(ctx); err != nil {
				return err
			}
			st := sched.Stats()
			logger.Info("drained", "completed", st.Completed, "batches", st.Batches,
				"mean_batch", st.MeanBatch)
			return nil
		})
}
