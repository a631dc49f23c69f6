package worker

import (
	"bytes"
	"compress/zlib"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/gtsrb"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// newTestServer wires a demo hybrid network behind the real scheduler and
// HTTP mux, exactly as hybridnetd does.
func newTestServer(t *testing.T) (*httptest.Server, *core.HybridNetwork) {
	t.Helper()
	h, _, err := cli.DemoHybrid(32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := h.NewBatchClassifier(2)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := serve.New(bc, serve.Config{MaxBatch: 4, MaxDelay: time.Millisecond, QueueSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := New(sched, 10*time.Second, 32, serve.ClassGuaranteed, nil, obs.NewTraceSink(nil, "request", 8, 0))
	srv := httptest.NewServer(s.Mux())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := sched.Shutdown(ctx); err != nil {
			t.Errorf("scheduler shutdown: %v", err)
		}
	})
	return srv, h
}

func postClassify(t *testing.T, url string, body string) (*http.Response, api.ClassifyResponse, api.ErrorResponse) {
	t.Helper()
	resp, err := http.Post(url+"/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var ok api.ClassifyResponse
	var fail api.ErrorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &ok); err != nil {
			t.Fatalf("decode %q: %v", buf.String(), err)
		}
	} else if err := json.Unmarshal(buf.Bytes(), &fail); err != nil {
		t.Fatalf("decode error body %q: %v", buf.String(), err)
	}
	return resp, ok, fail
}

func TestClassifySign(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, got, _ := postClassify(t, srv.URL, `{"sign":"stop","seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.ClassName == "" || got.Decision == "" || got.QualifierShape == "" {
		t.Fatalf("incomplete response: %+v", got)
	}
	if got.ReliableOps == 0 {
		t.Fatal("reliable path reported zero ops")
	}
}

func TestClassifyPNGRoundTrip(t *testing.T) {
	srv, h := newTestServer(t)
	rng := rand.New(rand.NewSource(9))
	img, err := gtsrb.AngledStopSign(32, rng)
	if err != nil {
		t.Fatal(err)
	}
	var png bytes.Buffer
	if err := gtsrb.WritePNG(img, &png); err != nil {
		t.Fatal(err)
	}
	// The served verdict must match a direct Classify of the identical
	// PNG-decoded image — the HTTP + scheduler path adds no drift.
	decoded, err := gtsrb.ReadPNG(bytes.NewReader(png.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.Classify(decoded)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(api.ClassifyRequest{ImagePNG: base64.StdEncoding.EncodeToString(png.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	resp, got, _ := postClassify(t, srv.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Class != want.Class || got.Decision != want.Decision.String() ||
		got.QualifierShape != want.Qualifier.Class.String() || got.ReliableOps != want.Stats.Ops {
		t.Fatalf("served (%d,%s,%s,%d) != direct (%d,%v,%v,%d)",
			got.Class, got.Decision, got.QualifierShape, got.ReliableOps,
			want.Class, want.Decision, want.Qualifier.Class, want.Stats.Ops)
	}
}

// pngBomb returns a few dozen bytes of well-formed PNG whose IHDR claims a
// w×h 8-bit RGB image and whose IDAT holds no pixel data. A full decode
// allocates w·h·4 bytes on reaching the IDAT, before it notices the data is
// missing.
func pngBomb(w, h uint32) []byte {
	chunk := func(kind string, data []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(data)))
		body := append([]byte(kind), data...)
		out = append(out, body...)
		return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	}
	ihdr := binary.BigEndian.AppendUint32(nil, w)
	ihdr = binary.BigEndian.AppendUint32(ihdr, h)
	ihdr = append(ihdr, 8, 2, 0, 0, 0) // bit depth, colour type RGB, deflate, filter, no interlace
	var idat bytes.Buffer
	zw := zlib.NewWriter(&idat)
	zw.Close()
	out := []byte("\x89PNG\r\n\x1a\n")
	out = append(out, chunk("IHDR", ihdr)...)
	out = append(out, chunk("IDAT", idat.Bytes())...)
	return append(out, chunk("IEND", nil)...)
}

// TestDecodeImageRefusesPNGBomb: a tiny PNG whose header claims 20000×20000
// is refused on its header, without the 1.6 GB image a full decode would
// allocate first; a frame of the configured size still decodes.
func TestDecodeImageRefusesPNGBomb(t *testing.T) {
	s := New(nil, time.Second, 32, serve.ClassGuaranteed, nil, nil)
	bomb := api.ClassifyRequest{ImagePNG: base64.StdEncoding.EncodeToString(pngBomb(20000, 20000))}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.decodeImage(bomb)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "20000x20000") {
		t.Fatalf("bomb: err = %v, want a size rejection naming 20000x20000", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing the bomb allocated %d bytes; the image was decoded before the size check", grew)
	}

	frame, err := gtsrb.AngledStopSign(32, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	var png bytes.Buffer
	if err := gtsrb.WritePNG(frame, &png); err != nil {
		t.Fatal(err)
	}
	img, err := s.decodeImage(api.ClassifyRequest{ImagePNG: base64.StdEncoding.EncodeToString(png.Bytes())})
	if err != nil {
		t.Fatalf("valid frame refused: %v", err)
	}
	if img.Dim(0) != 3 || img.Dim(1) != 32 || img.Dim(2) != 32 {
		t.Fatalf("valid frame decoded to %v", img.Shape())
	}
}

// pngBody is a /classify body carrying an angled stop sign of the given
// size as image_png.
func pngBody(tb testing.TB, size int) string {
	tb.Helper()
	img, err := gtsrb.AngledStopSign(size, rand.New(rand.NewSource(3)))
	if err != nil {
		tb.Fatal(err)
	}
	var png bytes.Buffer
	if err := gtsrb.WritePNG(img, &png); err != nil {
		tb.Fatal(err)
	}
	return fmt.Sprintf(`{"image_png":%q}`, base64.StdEncoding.EncodeToString(png.Bytes()))
}

// badRequestBodies are /classify bodies a 32-pixel worker must refuse with
// a 400. A well-formed PNG of the wrong size is among them: it must be
// rejected at admission — inside a micro-batch it would otherwise fail its
// co-batched riders.
func badRequestBodies(tb testing.TB) []string {
	return []string{
		`not json`,
		`{}`,
		`{"sign":"no-such-sign"}`,
		`{"sign":"stop","image_png":"AAAA"}`,
		`{"image_png":"!!!"}`,
		pngBody(tb, 16),
		fmt.Sprintf(`{"image_png":%q}`, base64.StdEncoding.EncodeToString(pngBomb(20000, 20000))),
	}
}

func TestClassifyBadRequests(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, body := range badRequestBodies(t) {
		resp, _, fail := postClassify(t, srv.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		if fail.Error == "" {
			t.Errorf("body %q: missing error message", body)
		}
	}
	resp, err := http.Get(srv.URL + "/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /classify: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthzAndStats(t *testing.T) {
	srv, _ := newTestServer(t)
	// Put one request through so stats are non-trivial.
	if resp, _, _ := postClassify(t, srv.URL, `{"sign":"yield"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d", resp.StatusCode)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health api.Health
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" {
		t.Fatalf("healthz: %v", health)
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Completed < 1 || stats.Batches < 1 || len(stats.BatchHist) == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	if stats.LatencyP50 <= 0 || stats.LatencyP99 < stats.LatencyP50 {
		t.Fatalf("latency quantiles inconsistent: p50=%v p99=%v", stats.LatencyP50, stats.LatencyP99)
	}
}

// gatedBackend holds every batch until the gate yields.
type gatedBackend struct{ gate chan struct{} }

func (b gatedBackend) ClassifyBatch(imgs []*tensor.Tensor) ([]core.Result, error) {
	<-b.gate
	return make([]core.Result, len(imgs)), nil
}

// TestClassifyStatusMapping pins the error-to-status contract: a client that
// disconnects before the verdict gets the nginx-style 499 (no Retry-After),
// while 503 + Retry-After stays reserved for real load shedding
// (ErrQueueFull) so overload statistics are not polluted by client churn.
func TestClassifyStatusMapping(t *testing.T) {
	gate := make(chan struct{})
	// QueueSize 2: the cancelled client's request keeps its queue slot until
	// the flusher drains it, so the second slot is for the queued request
	// and the third submission sheds.
	sched, err := serve.New(gatedBackend{gate}, serve.Config{MaxBatch: 1, QueueSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sched, time.Second, 32, serve.ClassGuaranteed, nil, nil)

	// Occupy the flusher inside the gated backend.
	occupied := make(chan error, 1)
	go func() {
		_, err := sched.Submit(context.Background(), tensor.MustNew(3, 32, 32))
		occupied <- err
	}()
	waitForCond(t, "flusher occupied", func() bool {
		st := sched.Stats()
		return st.Submitted == 1 && st.QueueDepth == 0
	})

	// Client gone: request context cancelled before the scheduler answers.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/classify",
		strings.NewReader(`{"sign":"stop","seed":1}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.handleClassify(rec, req)
	if rec.Code != api.StatusClientClosedRequest {
		t.Fatalf("client-gone status %d, want %d", rec.Code, api.StatusClientClosedRequest)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Fatalf("client-gone response carries Retry-After %q — conflated with load shedding", ra)
	}

	// Queue full: one more queued request takes the second and last slot
	// (the cancelled client's request still holds the first), so the next
	// submission must shed with 503 + Retry-After.
	queued := make(chan error, 1)
	go func() {
		_, err := sched.Submit(context.Background(), tensor.MustNew(3, 32, 32))
		queued <- err
	}()
	waitForCond(t, "queue full", func() bool { return sched.Stats().QueueDepth == 2 })
	req = httptest.NewRequest(http.MethodPost, "/classify",
		strings.NewReader(`{"sign":"stop","seed":2}`))
	rec = httptest.NewRecorder()
	srv.handleClassify(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("load-shedding 503 lost its Retry-After")
	}

	close(gate)
	if err := <-occupied; err != nil {
		t.Fatalf("occupying request: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued request: %v", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := sched.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
}

// waitForCond polls cond for up to 5s.
func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
