// Command hybridnetd serves hybrid classifications over HTTP. It is the
// asynchronous front-end of the stack: every POST /classify is a single
// image; the internal/serve Scheduler coalesces concurrent requests into
// micro-batches and flushes them to a persistent core.BatchClassifier
// worker pool. Overload surfaces as fast 503s (bounded queue), slow
// requests as 504s (per-request deadline), and SIGINT/SIGTERM drains the
// queue before exiting.
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
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"image/png"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only via -debug-addr
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/gtsrb"
	"repro/internal/obs"
	"repro/internal/obs/logx"
	"repro/internal/serve"
	"repro/internal/tensor"
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
	modelPath := fs.String("model", "", "onnxlite model path")
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
	gemmWorkers := fs.Int("gemm-workers", 1, "goroutines per GEMM call (intra-GEMM row parallelism; 1 = off)")
	debugAddr := fs.String("debug-addr", "", "optional second listen address exposing net/http/pprof (empty = off)")
	traceSample := fs.Float64("trace-sample", 0, "fraction of traced requests logged with their span breakdown (0 = off, 1 = all)")
	traceDepth := fs.Int("trace-depth", obs.DefaultRecorderDepth, "flight recorder depth: K slowest + K most recent traces kept for /debug/requests")
	logLevel := fs.String("log-level", "info", "log verbosity: debug|info|warn|error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tensor.SetGemmWorkers(*gemmWorkers)
	level, err := logx.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := logx.New(os.Stderr, level)

	var h *core.HybridNetwork
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

	srv := newServer(sched, *timeout, *size)
	srv.defaultClass = defClass
	srv.log = logger
	srv.rec = obs.NewRecorder(*traceDepth)
	srv.sample = newSampler(*traceSample)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := cli.NewHTTPServer(srv.mux())
	logger.Info("listening",
		"addr", ln.Addr().String(), "workers", bc.Workers(), "subbatch", bc.SubBatch(),
		"max_batch", *maxBatch, "max_delay", *maxDelay, "queue", *queueSize,
		"gemm", tensor.GemmKernel(), "gemm_workers", tensor.GemmWorkers())
	if *debugAddr != "" {
		// pprof rides the DefaultServeMux (the blank net/http/pprof import);
		// it only becomes reachable when the operator asks for the second
		// listener, so the serving port never exposes profiling.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		logger.Info("pprof listening", "addr", dln.Addr().String())
		go func() {
			if err := http.Serve(dln, nil); err != nil {
				logger.Warn("pprof server exited", "err", err)
			}
		}()
	}
	// Worker mode: report the bound address on stdout so a supervisor
	// (hybridnet-router) that started us with -addr 127.0.0.1:0 can learn
	// the kernel-assigned port. Logs go to stderr, so this is the only
	// stdout traffic.
	if err := cli.WriteAddrReport(os.Stdout, ln.Addr().String()); err != nil {
		return fmt.Errorf("report bound address: %w", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := sched.Shutdown(shutdownCtx); err != nil {
		return err
	}
	st := sched.Stats()
	logger.Info("drained", "completed", st.Completed, "batches", st.Batches,
		"mean_batch", st.MeanBatch)
	return nil
}

// sampler decides which traced requests get their span breakdown logged: a
// deterministic 1-in-N counter derived from the -trace-sample fraction, so a
// given rate yields a predictable log volume (no per-request randomness).
type sampler struct {
	every uint64 // 0 = never
	n     atomic.Uint64
}

func newSampler(fraction float64) *sampler {
	s := &sampler{}
	if fraction > 0 {
		if fraction > 1 {
			fraction = 1
		}
		s.every = uint64(1 / fraction)
		if s.every < 1 {
			s.every = 1
		}
	}
	return s
}

func (s *sampler) hit() bool {
	if s == nil || s.every == 0 {
		return false
	}
	return s.n.Add(1)%s.every == 0
}

// server holds the HTTP handler state.
type server struct {
	sched        *serve.Scheduler
	timeout      time.Duration
	size         int // server-side render size
	start        time.Time
	defaultClass serve.Class   // class for requests without an X-Hybridnet-Class header
	log          *logx.Logger  // nil-safe: tests construct a bare server
	rec          *obs.Recorder // nil-safe flight recorder
	sample       *sampler      // nil-safe trace-log sampler
}

func newServer(sched *serve.Scheduler, timeout time.Duration, size int) *server {
	return &server{sched: sched, timeout: timeout, size: size, start: time.Now()}
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/classify", s.handleClassify)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	return mux
}

// classifyRequest is the POST /classify body: either a base64 PNG or the
// name of a synthetic sign to render server-side (demo and load testing).
type classifyRequest struct {
	ImagePNG string `json:"image_png,omitempty"`
	Sign     string `json:"sign,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

// classifyResponse keeps "class" for the CNN's predicted class index;
// service_class/degraded (adjacent in the encoding, so
// `"service_class":"budget","degraded":true` is a stable marker) report
// the tier the request was served under and whether overload degraded a
// budget request into the CNN-only pipeline.
type classifyResponse struct {
	Class          int     `json:"class"`
	ClassName      string  `json:"class_name"`
	Confidence     float32 `json:"confidence"`
	Decision       string  `json:"decision"`
	QualifierShape string  `json:"qualifier_shape"`
	ServiceClass   string  `json:"service_class"`
	Degraded       bool    `json:"degraded"`
	ReliableOps    uint64  `json:"reliable_ops"`
	ReliableRetry  uint64  `json:"reliable_retries"`
	LatencyMS      float64 `json:"latency_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// statusClientClosedRequest is the nginx-convention 499 for "client closed
// the connection before the server answered". net/http has no constant for
// it; using it keeps client disconnects distinct from 503 load shedding.
const statusClientClosedRequest = 499

// retryAfterSecs renders a backoff duration as the whole-second string the
// Retry-After header wants, rounding up and never below 1.
func retryAfterSecs(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logx.Default().Warn("write response", "err", err)
	}
}

// traceID resolves the request's trace ID: the propagated header if the
// caller (the router, typically) sent a well-formed one, a freshly minted ID
// otherwise.
func traceID(r *http.Request) string {
	if id := r.Header.Get(obs.TraceHeader); obs.ValidTraceID(id) {
		return id
	}
	return obs.NewTraceID()
}

// schedSpans turns the scheduler's Timing into the request's span list:
// contiguous top-level stages (queue wait, batch assembly, backend) whose
// deltas tile the scheduler's portion of the wall clock, plus dotted
// backend.* sub-spans carrying the batch-level pipeline breakdown (summed
// per-worker wall time — drill-down data, excluded from the top-level sum).
func schedSpans(tm serve.Timing, spans []obs.Span) []obs.Span {
	if tm.Done.IsZero() {
		return spans
	}
	spans = append(spans,
		obs.Span{Name: "queue", Dur: tm.Picked.Sub(tm.Enqueued)},
		obs.Span{Name: "batch", Dur: tm.Dispatched.Sub(tm.Picked)},
		obs.Span{Name: "backend", Dur: tm.Done.Sub(tm.Dispatched)},
	)
	if st := tm.Stages; st.Reliable > 0 || st.Qualifier > 0 || st.CNN > 0 {
		spans = append(spans,
			obs.Span{Name: "backend.reliable", Dur: st.Reliable},
			obs.Span{Name: "backend.qualifier", Dur: st.Qualifier},
			obs.Span{Name: "backend.cnn", Dur: st.CNN},
		)
	}
	return spans
}

// finishTrace files the completed request with the flight recorder and emits
// the structured outcome line: errors always (one warn line per 503/504/499
// with the trace ID), successes at debug, and -trace-sample promotes a
// deterministic fraction of requests to info with the full span breakdown.
func (s *server) finishTrace(rec obs.TraceRecord, batch int, errMsg string) {
	s.rec.Record(rec)
	level := logx.Debug
	if rec.Status != http.StatusOK {
		level = logx.Warn
	}
	sampled := s.sample.hit()
	if sampled && level < logx.Info {
		level = logx.Info
	}
	if !s.log.Enabled(level) {
		return
	}
	kvs := []any{
		"trace", rec.ID, "status", rec.Status,
		"total_ms", float64(rec.Total.Microseconds()) / 1000,
	}
	if batch > 0 {
		kvs = append(kvs, "batch", batch)
	}
	if errMsg != "" {
		kvs = append(kvs, "err", errMsg)
	}
	if d := rec.Attrs["decision"]; d != "" {
		kvs = append(kvs, "decision", d)
	}
	if sampled && len(rec.Spans) > 0 {
		kvs = append(kvs, "spans", obs.FormatSpans(rec.Spans))
	}
	switch level {
	case logx.Warn:
		s.log.Warn("request", kvs...)
	case logx.Info:
		s.log.Info("request", kvs...)
	default:
		s.log.Debug("request", kvs...)
	}
}

func (s *server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST only"})
		return
	}
	start := time.Now()
	trace := traceID(r)
	w.Header().Set(obs.TraceHeader, trace)
	var req classifyRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("bad request body: %v", err)})
		return
	}
	img, err := s.decodeImage(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	class := s.defaultClass
	if v := r.Header.Get(obs.ClassHeader); v != "" {
		class, err = serve.ParseClass(v)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
			return
		}
	}
	// admission covers everything before the scheduler saw the request:
	// body read, decode/render, deadline setup.
	spans := []obs.Span{{Name: "admission", Dur: time.Since(start)}}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	res, timing, err := s.sched.SubmitTraced(ctx, img, class)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrClosed):
			// Real load shedding: 503 + Retry-After is reserved for these
			// two, so the load-shedding rate in client stats means overload.
			// The backoff is proportional: this class's queue depth × the
			// EWMA per-image service time, rounded up to whole seconds.
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", retryAfterSecs(s.sched.RetryAfter(class)))
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			// The client went away before the verdict — not server overload.
			// Nobody reads this response; the distinct status keeps client
			// disconnects out of the 503 load-shedding accounting.
			status = statusClientClosedRequest
		}
		// Failed requests have no scheduler breakdown; the wait span covers
		// the whole time inside Submit (queued until rejection/expiry).
		spans = append(spans, obs.Span{Name: "wait", Dur: time.Since(start) - spans[0].Dur})
		w.Header().Set(obs.SpansHeader, obs.FormatSpans(spans))
		writeJSON(w, status, errorResponse{err.Error()})
		s.finishTrace(obs.TraceRecord{
			ID: trace, Start: start, Status: status, Total: time.Since(start), Spans: spans,
		}, 0, err.Error())
		return
	}
	spans = schedSpans(timing, spans)
	// deliver is the handoff tail: backend done → response committed here.
	// (The only wall time the spans don't cover is the sub-microsecond gap
	// between the admission measurement and the scheduler's enqueue stamp.)
	spans = append(spans, obs.Span{Name: "deliver", Dur: time.Since(timing.Done)})
	w.Header().Set(obs.SpansHeader, obs.FormatSpans(spans))
	resp := classifyResponse{
		Class:          res.Class,
		Confidence:     res.Confidence,
		Decision:       res.Decision.String(),
		QualifierShape: res.Qualifier.Class.String(),
		ServiceClass:   timing.Class.String(),
		Degraded:       timing.Degraded,
		ReliableOps:    res.Stats.Ops,
		ReliableRetry:  res.Stats.Retries,
		LatencyMS:      float64(time.Since(start).Microseconds()) / 1000,
	}
	if classes := gtsrb.StandardClasses(); res.Class >= 0 && res.Class < len(classes) {
		resp.ClassName = classes[res.Class].Name
	}
	writeJSON(w, http.StatusOK, resp)
	s.finishTrace(obs.TraceRecord{
		ID: trace, Start: start, Status: http.StatusOK, Total: time.Since(start), Spans: spans,
		Attrs: map[string]string{"decision": res.Decision.String()},
	}, timing.BatchSize, "")
}

// decodeImage resolves the request body to a CHW tensor.
func (s *server) decodeImage(req classifyRequest) (*tensor.Tensor, error) {
	switch {
	case req.ImagePNG != "" && req.Sign != "":
		return nil, fmt.Errorf("image_png and sign are mutually exclusive")
	case req.ImagePNG != "":
		raw, err := base64.StdEncoding.DecodeString(req.ImagePNG)
		if err != nil {
			return nil, fmt.Errorf("image_png is not valid base64: %v", err)
		}
		// Reject wrong-sized images at admission: a bad image inside a
		// micro-batch would otherwise fail every request riding the same
		// batch with a 500 instead of failing its own sender with a 400.
		// The check reads the header only — ReadPNG allocates the whole
		// image, and a few bytes of IHDR can claim gigapixels.
		hdr, err := png.DecodeConfig(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("image_png: %v", err)
		}
		if hdr.Width != s.size || hdr.Height != s.size {
			return nil, fmt.Errorf("image_png must decode to %dx%d, got %dx%d (serve with matching -size)",
				s.size, s.size, hdr.Width, hdr.Height)
		}
		img, err := gtsrb.ReadPNG(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("image_png: %v", err)
		}
		return img, nil
	case req.Sign != "":
		var spec gtsrb.ClassSpec
		found := false
		for _, c := range gtsrb.StandardClasses() {
			if c.Name == req.Sign {
				spec, found = c, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown sign %q", req.Sign)
		}
		cfg, err := gtsrb.Config{Size: s.size}.Normalize()
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(req.Seed))
		return gtsrb.Render(gtsrb.RandomParams(cfg, spec, rng), rng)
	default:
		return nil, fmt.Errorf("need image_png or sign")
	}
}

// handleHealthz reports liveness plus the signals the shard router feeds
// into placement: the live queue depth (load), the rolling per-image
// service time (capacity, for adaptive weighting), and the self-computed
// min-max advertised weight (consumed by `-placement minmax`). The build
// block identifies the compute substrate — which GEMM kernel this binary
// selected at init and what the host CPU offers — so a heterogeneous fleet
// (some workers on SIMD, some on the pure-Go fallback) is diagnosable from
// the outside.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	classDepths := make(map[string]int, len(st.Classes))
	for _, cs := range st.Classes {
		classDepths[cs.Class] = cs.QueueDepth
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":             "ok",
		"queue_depth":        st.QueueDepth,
		"class_queue_depths": classDepths,
		"service_ns":         st.ServiceTime.Nanoseconds(),
		"advertised_weight":  st.AdvertisedWeight,
		"uptime_s":           time.Since(s.start).Seconds(),
		"build": map[string]any{
			"gemm_kernel":  tensor.GemmKernel(),
			"cpu_features": tensor.CPUFeatures(),
			"gemm_workers": tensor.GemmWorkers(),
			"gomaxprocs":   runtime.GOMAXPROCS(0),
			"num_cpu":      runtime.NumCPU(),
			"go_arch":      runtime.GOARCH,
		},
	})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.Stats())
}

// handleMetrics renders the scheduler snapshot in Prometheus text format.
// It is a stateless view over the same counters /stats serves, so the two
// endpoints can never disagree.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	obs.WriteServeStats(p, s.sched.Stats())
	p.Info("hybridnet_build_info",
		"Compute substrate of this worker: selected GEMM kernel and host CPU.",
		obs.Label{Name: "gemm_kernel", Value: tensor.GemmKernel()},
		obs.Label{Name: "gemm_workers", Value: fmt.Sprint(tensor.GemmWorkers())},
		obs.Label{Name: "go_arch", Value: runtime.GOARCH},
	)
	if err := p.Err(); err != nil {
		s.log.Warn("write metrics", "err", err)
	}
}

// handleDebugRequests dumps the flight recorder: the K most recent and K
// slowest request traces this process has served.
func (s *server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.rec.Snapshot())
}
