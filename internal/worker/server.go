// Package worker is hybridnetd's HTTP server: POST /classify, GET /healthz,
// /stats, /metrics and /debug/requests over one serve.Scheduler. It lives
// outside package main so tests and in-process fleets construct the real
// handlers without building a binary; cmd/hybridnetd is flag parsing plus
// New.
//
// The bodies are the internal/api types. Every /classify response carries
// X-Hybridnet-Trace (the request's trace ID, minted here unless the caller
// — typically hybridnet-router — sent one) and X-Hybridnet-Spans (the
// per-stage timing breakdown). Scheduler errors map to statuses as: queue
// full or closed → 503 + Retry-After (real load shedding only), deadline →
// 504, client gone → 499, anything else (a failed or panicking backend
// batch) → 500; malformed input is a 400 before the scheduler sees it.
package worker

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/gtsrb"
	"repro/internal/obs"
	"repro/internal/obs/logx"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Server holds the HTTP handler state of one worker.
type Server struct {
	sched        *serve.Scheduler
	timeout      time.Duration // per-request deadline
	size         int           // input size: server-side render and PNG admission check
	start        time.Time
	defaultClass serve.Class    // class for requests without an X-Hybridnet-Class header
	log          *logx.Logger   // nil-safe
	trace        *obs.TraceSink // nil-safe: flight recorder + outcome lines
}

// New builds the worker API over sched. A nil log or trace disables the
// corresponding output.
func New(sched *serve.Scheduler, timeout time.Duration, size int, defaultClass serve.Class, log *logx.Logger, trace *obs.TraceSink) *Server {
	return &Server{
		sched: sched, timeout: timeout, size: size, start: time.Now(),
		defaultClass: defaultClass, log: log, trace: trace,
	}
}

// Mux returns the worker's HTTP API.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/classify", s.handleClassify)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	return mux
}

// retryAfterSecs renders a backoff duration as the whole-second string the
// Retry-After header wants, rounding up and never below 1.
func retryAfterSecs(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
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

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteJSON(w, http.StatusMethodNotAllowed, api.ErrorResponse{Error: "POST only"})
		return
	}
	start := time.Now()
	// The headers first: a bad class is refused before the body is read.
	trace, class, err := obs.ResolveRequest(w, r, s.defaultClass)
	if err != nil {
		api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: err.Error()})
		return
	}
	var req api.ClassifyRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&req); err != nil {
		api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	img, err := s.decodeImage(req)
	if err != nil {
		api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: err.Error()})
		return
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
			status = api.StatusClientClosedRequest
		}
		// Failed requests have no scheduler breakdown; the wait span covers
		// the whole time inside Submit (queued until rejection/expiry).
		spans = append(spans, obs.Span{Name: "wait", Dur: time.Since(start) - spans[0].Dur})
		w.Header().Set(obs.SpansHeader, obs.FormatSpans(spans))
		api.WriteJSON(w, status, api.ErrorResponse{Error: err.Error()})
		s.trace.Finish(obs.TraceRecord{
			ID: trace, Start: start, Status: status, Total: time.Since(start), Spans: spans,
		}, err.Error())
		return
	}
	spans = schedSpans(timing, spans)
	// deliver is the handoff tail: backend done → response committed here.
	// (The only wall time the spans don't cover is the sub-microsecond gap
	// between the admission measurement and the scheduler's enqueue stamp.)
	spans = append(spans, obs.Span{Name: "deliver", Dur: time.Since(timing.Done)})
	w.Header().Set(obs.SpansHeader, obs.FormatSpans(spans))
	resp := api.ClassifyResponse{
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
	api.WriteJSON(w, http.StatusOK, resp)
	s.trace.Finish(obs.TraceRecord{
		ID: trace, Start: start, Status: http.StatusOK, Total: time.Since(start), Spans: spans,
		Attrs: map[string]string{"decision": resp.Decision},
	}, "", "batch", timing.BatchSize, "decision", resp.Decision)
}

// decodeImage resolves the request body to a CHW tensor.
func (s *Server) decodeImage(req api.ClassifyRequest) (*tensor.Tensor, error) {
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

// handleHealthz reports liveness plus the placement signals and build
// block of api.Health.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	classDepths := make(map[string]int64, len(st.Classes))
	for _, cs := range st.Classes {
		classDepths[cs.Class] = int64(cs.QueueDepth)
	}
	api.WriteJSON(w, http.StatusOK, api.Health{
		Status:           "ok",
		QueueDepth:       int64(st.QueueDepth),
		ClassQueueDepths: classDepths,
		ServiceNS:        st.ServiceTime.Nanoseconds(),
		UptimeS:          time.Since(s.start).Seconds(),
		Build: api.Build{
			GemmKernel:  tensor.GemmKernel(),
			CPUFeatures: tensor.CPUFeatures(),
			GemmWorkers: tensor.GemmWorkers(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
			GoArch:      runtime.GOARCH,
		},
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.sched.Stats())
}

// handleMetrics renders the scheduler snapshot in Prometheus text format.
// It is a stateless view over the same counters /stats serves, so the two
// endpoints can never disagree.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
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
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.trace.Snapshot())
}
