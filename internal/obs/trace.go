// Package obs is the serving plane's zero-dependency observability layer:
// request tracing (trace IDs, per-stage spans, wire headers), Prometheus
// text-format metrics emission, and a flight recorder holding the slowest
// and most recent request traces per process.
//
// The package sits above internal/serve (it renders serve.Stats into
// metrics) and below the daemons; serve itself never imports obs, so the
// scheduler's hot path carries only plain timestamps and the conversion to
// spans happens once per request at the HTTP edge.
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Wire headers for cross-process trace propagation.
const (
	// TraceHeader carries the request's trace ID over the router→worker hop
	// (request direction) and back to the client (response direction). The
	// router assigns an ID at the fleet edge when the client did not send
	// one; a worker reached directly assigns its own.
	TraceHeader = "X-Hybridnet-Trace"
	// SpansHeader is the response header carrying the per-stage timing
	// breakdown, Server-Timing style: "name;dur=1.234, name;dur=0.1" with
	// durations in milliseconds. Dotted names (backend.cnn) are sub-spans of
	// their prefix and excluded from the top-level sum.
	SpansHeader = "X-Hybridnet-Spans"
	// RouterSpansHeader carries the router's own spans (placement, per-shard
	// attempts) so they never collide with the worker's breakdown.
	RouterSpansHeader = "X-Hybridnet-Router-Spans"
	// ClassHeader carries the request's service class (guaranteed | fast |
	// budget, the wire names of serve.Class) from client to router and on
	// to the worker, alongside the trace ID. Absent means the receiving
	// daemon's -default-class.
	ClassHeader = "X-Hybridnet-Class"
)

// Trace IDs are "pppppppp-nnnn": an 8-hex-digit per-process random prefix
// and a monotonically increasing per-process counter, so IDs are unique
// within a fleet (prefix collision odds aside) and cheap to mint — one
// atomic add per request, no per-request entropy read.
var (
	tracePrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Entropy exhaustion is not worth failing a request over; fall
			// back to a time-derived prefix.
			binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
		}
		return fmt.Sprintf("%08x", binary.LittleEndian.Uint32(b[:]))
	}()
	traceCounter atomic.Uint64
)

// NewTraceID mints a process-unique trace ID.
func NewTraceID() string {
	n := traceCounter.Add(1)
	return tracePrefix + "-" + strconv.FormatUint(n, 16)
}

// ValidTraceID bounds what the daemons accept from the wire: short,
// printable, no whitespace or header-splitting characters. Anything else is
// replaced with a fresh ID rather than echoed back.
func ValidTraceID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':':
		default:
			return false
		}
	}
	return true
}

// ResolveRequest resolves what both tiers read from a /classify request
// before its body: the trace ID — the caller's if well-formed, a fresh one
// otherwise — which it echoes on w, and the service class named by
// ClassHeader (def when the header is absent). An unknown class is the
// error, for the caller to answer with a 400.
func ResolveRequest(w http.ResponseWriter, r *http.Request, def serve.Class) (trace string, class serve.Class, err error) {
	trace = r.Header.Get(TraceHeader)
	if !ValidTraceID(trace) {
		trace = NewTraceID()
	}
	w.Header().Set(TraceHeader, trace)
	class = def
	if h := r.Header.Get(ClassHeader); h != "" {
		class, err = serve.ParseClass(h)
	}
	return trace, class, err
}

// Span is one named stage of a request's lifetime. Names are flat
// identifiers; a dotted name (backend.cnn) marks a sub-span of the stage
// named by its prefix, reported for drill-down but excluded from the
// top-level duration sum (its parent already covers the wall time).
type Span struct {
	Name string        `json:"name"`
	Dur  time.Duration `json:"dur_ns"`
}

// Sub reports whether the span is a sub-span (dotted name).
func (s Span) Sub() bool { return strings.Contains(s.Name, ".") }

// SumTopLevel adds the non-sub-span durations: the request's accounted
// wall time, which for a fully instrumented request matches its end-to-end
// latency to within the instrumentation gaps.
func SumTopLevel(spans []Span) time.Duration {
	var sum time.Duration
	for _, s := range spans {
		if !s.Sub() {
			sum += s.Dur
		}
	}
	return sum
}

// FormatSpans renders spans for SpansHeader: "name;dur=1.234, ..." with
// durations in fractional milliseconds (microsecond precision).
func FormatSpans(spans []Span) string {
	var b strings.Builder
	b.Grow(24 * len(spans))
	for i, s := range spans {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.Name)
		b.WriteString(";dur=")
		b.WriteString(strconv.FormatFloat(float64(s.Dur)/float64(time.Millisecond), 'f', 3, 64))
	}
	return b.String()
}

// ParseSpans inverts FormatSpans (tolerating whitespace variations), for
// clients (loadgen) and tests reading the header back.
func ParseSpans(header string) ([]Span, error) {
	header = strings.TrimSpace(header)
	if header == "" {
		return nil, nil
	}
	parts := strings.Split(header, ",")
	spans := make([]Span, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		name, durPart, ok := strings.Cut(p, ";dur=")
		if !ok || name == "" {
			return nil, fmt.Errorf("obs: malformed span %q", p)
		}
		ms, err := strconv.ParseFloat(durPart, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: span %q duration: %w", name, err)
		}
		spans = append(spans, Span{Name: name, Dur: time.Duration(ms * float64(time.Millisecond))})
	}
	return spans, nil
}

// TraceRecord is one request's trace as the flight recorder keeps it: the
// identity, outcome and full stage breakdown, small enough to hold hundreds
// per process.
type TraceRecord struct {
	ID     string    `json:"id"`
	Start  time.Time `json:"start"`
	Status int       `json:"status"` // HTTP status of the outcome
	// Total is the end-to-end duration the process observed (request read
	// to response committed).
	Total time.Duration `json:"total_ns"`
	Spans []Span        `json:"spans,omitempty"`
	// Attrs carries small request-scoped facts (shard id at the router,
	// decision class at the worker) without schema churn.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// sortSlowest orders records by descending Total (ties by recency).
func sortSlowest(recs []TraceRecord) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Total != recs[j].Total {
			return recs[i].Total > recs[j].Total
		}
		return recs[i].Start.After(recs[j].Start)
	})
}
