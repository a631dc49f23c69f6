package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// TestTraceSinkLevelsAndSampling pins the outcome-line policy both daemons
// share: errors at warn, one in 1/sample of all requests promoted to info
// with its spans, the rest at debug — and every request in the recorder
// whatever the logger does.
func TestTraceSinkLevelsAndSampling(t *testing.T) {
	var out bytes.Buffer
	sink := NewTraceSink(slog.New(slog.NewTextHandler(&out, &slog.HandlerOptions{Level: slog.LevelDebug})), "request", 8, 0.5)
	spans := []Span{{Name: "queue", Dur: time.Millisecond}}
	for i, status := range []int{200, 200, 503, 200} {
		errMsg := ""
		if status >= 400 {
			errMsg = "queue full"
		}
		sink.Finish(TraceRecord{ID: "t", Status: status, Total: time.Millisecond, Spans: spans}, errMsg, "batch", i)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d outcome lines, want 4:\n%s", len(lines), out.String())
	}
	for i, want := range []string{"level=DEBUG", "level=INFO", "level=WARN", "level=INFO"} {
		if !strings.Contains(lines[i], want) || !strings.Contains(lines[i], "msg=request") {
			t.Errorf("line %d = %q, want %s msg=request", i, lines[i], want)
		}
		if sampled := i%2 == 1; strings.Contains(lines[i], "spans=") != sampled {
			t.Errorf("line %d spans present = %v, want %v: %q", i, !sampled, sampled, lines[i])
		}
	}
	if !strings.Contains(lines[2], `err="queue full"`) || !strings.Contains(lines[2], "batch=2") {
		t.Errorf("error line lost its err or caller fields: %q", lines[2])
	}
	if dump := sink.Snapshot(); dump.Total != 4 || dump.Depth != 8 {
		t.Errorf("recorder total=%d depth=%d, want 4/8", dump.Total, dump.Depth)
	}

	// No logger: the recorder still fills. No sink: nothing happens.
	quiet := NewTraceSink(nil, "proxy", 0, 1)
	quiet.Finish(TraceRecord{ID: "q", Status: 502}, "boom")
	if dump := quiet.Snapshot(); dump.Total != 1 || dump.Depth != DefaultRecorderDepth {
		t.Errorf("logger-less sink total=%d depth=%d, want 1/%d", dump.Total, dump.Depth, DefaultRecorderDepth)
	}
	var none *TraceSink
	none.Finish(TraceRecord{ID: "n"}, "")
	if dump := none.Snapshot(); dump.Total != 0 {
		t.Errorf("nil sink recorded %d traces", dump.Total)
	}
}
