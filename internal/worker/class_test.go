package worker

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// TestClassifyServiceClassHeader: the worker resolves X-Hybridnet-Class
// (absent = -default-class, invalid = 400) and reports the tier in the
// response, with the `"service_class":...,"degraded":...` pair adjacent in
// the raw encoding — the stable marker api.ClassifyResponse documents.
func TestClassifyServiceClassHeader(t *testing.T) {
	srv, _ := newTestServer(t)
	post := func(class string) (*http.Response, string) {
		t.Helper()
		return postClass(t, srv.URL, class, `{"sign":"stop","seed":3}`)
	}

	resp, body := post("")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("headerless classify: status %d body %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"service_class":"guaranteed","degraded":false`) {
		t.Errorf("headerless response lacks the guaranteed/undegraded marker: %s", body)
	}

	resp, body = post("fast")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast classify: status %d body %s", resp.StatusCode, body)
	}
	var got api.ClassifyResponse
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.ServiceClass != "fast" || got.Degraded {
		t.Errorf("fast response reports service_class=%q degraded=%v", got.ServiceClass, got.Degraded)
	}
	// The fast pipeline skips the reliable stage entirely.
	if got.ReliableOps != 0 {
		t.Errorf("fast response counted %d reliable ops, want 0", got.ReliableOps)
	}

	resp, body = post("premium")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "premium") {
		t.Errorf("invalid class: status %d body %s, want 400 naming the class", resp.StatusCode, body)
	}
}

// TestClassifyRefusesBadClassBeforeBody: the class header is resolved
// before the body is read, so a bad class is the 400 even when the body is
// malformed too.
func TestClassifyRefusesBadClassBeforeBody(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, body := postClass(t, srv.URL, "platinum", `{"sign":`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, `platinum`) {
		t.Errorf("bad class with a malformed body: status %d body %s, want the 400 naming the class", resp.StatusCode, body)
	}
	if !obs.ValidTraceID(resp.Header.Get(obs.TraceHeader)) {
		t.Errorf("400 carries no trace ID: %q", resp.Header.Get(obs.TraceHeader))
	}
}

// postClass POSTs body to /classify under the given class header (none
// when empty) and returns the response with its body read.
func postClass(t *testing.T, base, class, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/classify", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if class != "" {
		req.Header.Set(obs.ClassHeader, class)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

// TestHealthzClassQueueDepths: the worker's health report carries the
// per-class queue split the router's class-aware placement consumes.
func TestHealthzClassQueueDepths(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body api.Health
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"guaranteed", "fast", "budget"} {
		if _, ok := body.ClassQueueDepths[class]; !ok {
			t.Errorf("healthz class_queue_depths missing %q: %v", class, body.ClassQueueDepths)
		}
	}
}

// TestRetryAfterSecs pins the Retry-After rendering: whole seconds,
// rounded up, never below 1.
func TestRetryAfterSecs(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{time.Nanosecond, "1"},
		{999 * time.Millisecond, "1"},
		{time.Second, "1"},
		{time.Second + time.Nanosecond, "2"},
		{24 * time.Second, "24"},
	}
	for _, c := range cases {
		if got := retryAfterSecs(c.d); got != c.want {
			t.Errorf("retryAfterSecs(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
