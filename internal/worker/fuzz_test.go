package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// instantBackend answers every batch at once with zero-valued results, so
// the fuzzer spends its time in the HTTP edge rather than the network;
// with MaxBatch 1 no request waits for a batch to fill.
type instantBackend struct{}

func (instantBackend) ClassifyBatch(imgs []*tensor.Tensor) ([]core.Result, error) {
	return make([]core.Result, len(imgs)), nil
}

// FuzzClassify drives POST /classify of an in-process Server with an
// arbitrary body, X-Hybridnet-Class header and trace header. Whatever
// arrives, the worker must not panic, must answer 200 with an
// api.ClassifyResponse or 400 with an api.ErrorResponse, and must stamp a
// valid trace ID on the response — the caller's own when it sent a valid
// one.
func FuzzClassify(f *testing.F) {
	bodies := append(badRequestBodies(f),
		`{"sign":"stop","seed":7}`,
		`{"sign":"yield","seed":-1}`,
		pngBody(f, 32),
		pngBody(f, 33),
	)
	for _, body := range bodies {
		for _, class := range []string{"", "fast", "budget", "premium"} {
			f.Add([]byte(body), class, "")
		}
	}
	f.Add([]byte(`{"sign":"stop"}`), "guaranteed", "trace-0123:abc")
	f.Add([]byte(`{"sign":"stop"}`), "", "not a trace id")

	sched, err := serve.New(instantBackend{}, serve.Config{MaxBatch: 1, QueueSize: 16})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := sched.Shutdown(ctx); err != nil {
			f.Errorf("scheduler shutdown: %v", err)
		}
	})
	mux := New(sched, 10*time.Second, 32, serve.ClassGuaranteed, nil, nil).Mux()

	f.Fuzz(func(t *testing.T, body []byte, class, trace string) {
		req := httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(body))
		if class != "" {
			req.Header.Set(obs.ClassHeader, class)
		}
		if trace != "" {
			req.Header.Set(obs.TraceHeader, trace)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)

		got := rec.Header().Get(obs.TraceHeader)
		if !obs.ValidTraceID(got) {
			t.Fatalf("status %d: trace header %q is not a valid trace ID", rec.Code, got)
		}
		if obs.ValidTraceID(trace) && got != trace {
			t.Fatalf("status %d: trace header %q, want the caller's %q", rec.Code, got, trace)
		}
		switch rec.Code {
		case http.StatusOK:
			var resp api.ClassifyResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body %q is not a ClassifyResponse: %v", rec.Body, err)
			}
			if _, err := serve.ParseClass(resp.ServiceClass); err != nil {
				t.Fatalf("200 body names service class %q: %v", resp.ServiceClass, err)
			}
		case http.StatusBadRequest:
			var resp api.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error == "" {
				t.Fatalf("400 body %q is not an ErrorResponse (err %v)", rec.Body, err)
			}
		default:
			t.Fatalf("status %d, want 200 or 400; body %q", rec.Code, rec.Body)
		}
	})
}
