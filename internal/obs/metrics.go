package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// Label is one Prometheus label pair. Values are escaped on write.
type Label struct {
	Name, Value string
}

// PromWriter emits Prometheus text exposition format (version 0.0.4), the
// format every Prometheus-compatible scraper ingests. It is a renderer,
// not a registry: the daemons snapshot their stats on each scrape and
// stream them through a fresh writer, so there is no metric state to keep
// in sync with the counters that already exist.
//
// HELP/TYPE headers are emitted once per metric family even when the same
// family is written repeatedly with different labels (per-shard series).
type PromWriter struct {
	w    io.Writer
	seen map[string]bool
	err  error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, seen: make(map[string]bool)}
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *PromWriter) header(name, help, typ string) {
	if p.seen[name] {
		return
	}
	p.seen[name] = true
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// series renders "name{labels}".
func series(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus expects: shortest
// float form, integers without exponent where possible.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter writes one counter sample.
func (p *PromWriter) Counter(name, help string, v float64, labels ...Label) {
	p.header(name, help, "counter")
	p.printf("%s %s\n", series(name, labels), formatValue(v))
}

// Gauge writes one gauge sample.
func (p *PromWriter) Gauge(name, help string, v float64, labels ...Label) {
	p.header(name, help, "gauge")
	p.printf("%s %s\n", series(name, labels), formatValue(v))
}

// Info writes the conventional "always 1" info gauge whose labels carry
// build/config facts (kernel, arch, worker counts).
func (p *PromWriter) Info(name, help string, labels ...Label) {
	p.Gauge(name, help, 1, labels...)
}

// HistogramFromServe renders a serve.Histogram as a Prometheus histogram
// in seconds, reusing the package-wide log-bucket layout — no new
// histogram math, just the cumulative view Prometheus wants. Empty
// trailing buckets collapse onto +Inf (the cumulative count no longer
// changes), keeping the exposition compact without changing any quantile
// a scraper would compute.
func (p *PromWriter) HistogramFromServe(name, help string, h *serve.Histogram, labels ...Label) {
	if h == nil {
		h = serve.NewHistogram()
	}
	p.header(name, help, "histogram")
	bounds := serve.HistogramBounds()
	counts := h.Counts()
	total := h.Count()
	var cum uint64
	for i, c := range counts[:len(bounds)] {
		cum += c
		if cum == total && i < len(bounds)-1 && c == 0 {
			// Every remaining bucket repeats the total; one +Inf line covers
			// them. (Only once the cumulative count has saturated.)
			break
		}
		le := append(labels[:len(labels):len(labels)], Label{"le", formatValue(bounds[i].Seconds())})
		p.printf("%s %d\n", series(name+"_bucket", le), cum)
		if cum == total {
			break
		}
	}
	inf := append(labels[:len(labels):len(labels)], Label{"le", "+Inf"})
	p.printf("%s %d\n", series(name+"_bucket", inf), total)
	p.printf("%s %s\n", series(name+"_sum", labels), formatValue(h.Sum().Seconds()))
	p.printf("%s %d\n", series(name+"_count", labels), total)
}

// BatchSizeHistogram renders the scheduler's batch-size distribution
// (BatchHist[i] = batches of size i+1) as a Prometheus histogram with one
// bucket per size.
func (p *PromWriter) BatchSizeHistogram(name, help string, batchHist []uint64, labels ...Label) {
	p.header(name, help, "histogram")
	var cum, total, sum uint64
	for _, c := range batchHist {
		total += c
	}
	for i, c := range batchHist {
		cum += c
		sum += uint64(i+1) * c
		le := append(labels[:len(labels):len(labels)], Label{"le", strconv.Itoa(i + 1)})
		p.printf("%s %d\n", series(name+"_bucket", le), cum)
	}
	inf := append(labels[:len(labels):len(labels)], Label{"le", "+Inf"})
	p.printf("%s %d\n", series(name+"_bucket", inf), total)
	p.printf("%s %d\n", series(name+"_sum", labels), sum)
	p.printf("%s %d\n", series(name+"_count", labels), total)
}

// WriteServeStats renders one serve.Stats snapshot under the shared
// hybridnet_* metric names. Both daemons use it — the worker with its own
// scheduler's stats, the router with the fleet's serve.Merge aggregate —
// so a dashboard works unchanged against either tier.
//
// Every request counter, latency/queue-wait histogram, queue gauge and
// stage-busy total is written twice: once unlabeled (the aggregate, the
// pre-class series dashboards already consume) and once per service class
// with a class="guaranteed|fast|budget" label in the same family. Both
// views render from the same snapshot, so the per-class sums equal the
// unlabeled totals exactly; queries should use one view or the other, not
// sum across both. The outcome-matrix family hybridnet_requests_total
// {class,outcome} and hybridnet_requests_degraded_total{class} exist only
// in class-labeled form.
func WriteServeStats(p *PromWriter, st serve.Stats, labels ...Label) {
	// cls returns labels + class=name without aliasing the caller's slice.
	cls := func(name string) []Label {
		return append(labels[:len(labels):len(labels)], Label{"class", name})
	}
	counters := []struct {
		name, help string
		agg        uint64
		per        func(serve.ClassStats) uint64
	}{
		{"hybridnet_requests_submitted_total", "Requests accepted into a scheduler queue.", st.Submitted, func(c serve.ClassStats) uint64 { return c.Submitted }},
		{"hybridnet_requests_rejected_total", "Requests shed by admission control (class queue full).", st.Rejected, func(c serve.ClassStats) uint64 { return c.Rejected }},
		{"hybridnet_requests_expired_total", "Requests whose deadline expired while queued.", st.Expired, func(c serve.ClassStats) uint64 { return c.Expired }},
		{"hybridnet_requests_expired_dispatched_total", "Requests whose deadline expired after dispatch to the backend (work wasted, result discarded).", st.ExpiredDispatched, func(c serve.ClassStats) uint64 { return c.ExpiredDispatched }},
		{"hybridnet_requests_completed_total", "Requests classified successfully.", st.Completed, func(c serve.ClassStats) uint64 { return c.Completed }},
		{"hybridnet_requests_failed_total", "Requests failed with a backend error.", st.Failed, func(c serve.ClassStats) uint64 { return c.Failed }},
	}
	for _, c := range counters {
		p.Counter(c.name, c.help, float64(c.agg), labels...)
		for _, cs := range st.Classes {
			p.Counter(c.name, c.help, float64(c.per(cs)), cls(cs.Class)...)
		}
	}
	// The outcome matrix: one family, class × outcome, for per-tier SLO
	// burn queries (e.g. rate(hybridnet_requests_total{class="guaranteed",
	// outcome="completed"}[5m])).
	const outcomeHelp = "Requests by service class and terminal outcome."
	for _, cs := range st.Classes {
		for _, o := range []struct {
			name string
			v    uint64
		}{
			{"completed", cs.Completed},
			{"rejected", cs.Rejected},
			{"expired", cs.Expired},
			{"expired_dispatched", cs.ExpiredDispatched},
			{"failed", cs.Failed},
		} {
			ls := append(cls(cs.Class), Label{"outcome", o.name})
			p.Counter("hybridnet_requests_total", outcomeHelp, float64(o.v), ls...)
		}
		p.Counter("hybridnet_requests_degraded_total", "Budget requests re-admitted into the fast (CNN-only) pipeline instead of being shed.", float64(cs.Degraded), cls(cs.Class)...)
	}
	p.Counter("hybridnet_batches_total", "Backend micro-batch invocations.", float64(st.Batches), labels...)
	p.Gauge("hybridnet_queue_depth", "Live scheduler queue depth.", float64(st.QueueDepth), labels...)
	p.Gauge("hybridnet_queue_capacity", "Admission-control queue bound.", float64(st.QueueCap), labels...)
	for _, cs := range st.Classes {
		p.Gauge("hybridnet_queue_depth", "Live scheduler queue depth.", float64(cs.QueueDepth), cls(cs.Class)...)
		p.Gauge("hybridnet_queue_capacity", "Admission-control queue bound.", float64(cs.QueueCap), cls(cs.Class)...)
	}
	p.Gauge("hybridnet_service_time_seconds", "Rolling EWMA of backend time per image (the adaptive-placement signal).", st.ServiceTime.Seconds(), labels...)
	p.Counter("hybridnet_backend_busy_seconds_total", "Cumulative wall time spent inside the backend.", st.BackendBusy.Seconds(), labels...)
	p.Gauge("hybridnet_uptime_seconds", "Scheduler uptime.", st.Uptime.Seconds(), labels...)
	p.BatchSizeHistogram("hybridnet_batch_size", "Dispatched micro-batch sizes.", st.BatchHist, labels...)
	p.HistogramFromServe("hybridnet_request_latency_seconds", "End-to-end request latency (enqueue to response).", st.LatencyHist, labels...)
	p.HistogramFromServe("hybridnet_queue_wait_seconds", "Time from enqueue until the flusher picked the request into a batch.", st.QueueHist, labels...)
	for _, cs := range st.Classes {
		p.HistogramFromServe("hybridnet_request_latency_seconds", "End-to-end request latency (enqueue to response).", cs.LatencyHist, cls(cs.Class)...)
		p.HistogramFromServe("hybridnet_queue_wait_seconds", "Time from enqueue until the flusher picked the request into a batch.", cs.QueueHist, cls(cs.Class)...)
	}
	p.HistogramFromServe("hybridnet_backend_latency_seconds", "Wall time of the request's batch inside the backend.", st.BackendHist, labels...)
	stageHelp := "Cumulative per-worker wall time spent in each backend pipeline stage."
	for _, stage := range []struct {
		name string
		agg  time.Duration
		per  func(serve.ClassStats) time.Duration
	}{
		{"reliable", st.StageReliable, func(c serve.ClassStats) time.Duration { return c.StageReliable }},
		{"qualifier", st.StageQualifier, func(c serve.ClassStats) time.Duration { return c.StageQualifier }},
		{"cnn", st.StageCNN, func(c serve.ClassStats) time.Duration { return c.StageCNN }},
	} {
		ls := append(labels[:len(labels):len(labels)], Label{"stage", stage.name})
		p.Counter("hybridnet_stage_busy_seconds_total", stageHelp, stage.agg.Seconds(), ls...)
		for _, cs := range st.Classes {
			lsc := append(cls(cs.Class), Label{"stage", stage.name})
			p.Counter("hybridnet_stage_busy_seconds_total", stageHelp, stage.per(cs).Seconds(), lsc...)
		}
	}
}

// --- Minimal Prometheus text-format parser (tests, loadgen) -------------

// MetricSample is one parsed exposition line.
type MetricSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// MetricFamily groups samples sharing a family name, with the declared
// TYPE ("counter", "gauge", "histogram").
type MetricFamily struct {
	Name    string
	Type    string
	Help    string
	Samples []MetricSample
}

// ParsePrometheus parses Prometheus text exposition format — enough of it
// to validate our own output and read quantiles back out of histograms.
// Unknown comment lines are ignored; malformed sample lines are errors.
func ParsePrometheus(text string) (map[string]*MetricFamily, error) {
	fams := make(map[string]*MetricFamily)
	family := func(name string) *MetricFamily {
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name && fams[trimmed] != nil && fams[trimmed].Type == "histogram" {
				base = trimmed
				break
			}
		}
		f := fams[base]
		if f == nil {
			f = &MetricFamily{Name: base}
			fams[base] = f
		}
		return f
	}
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				f := family(fields[2])
				f.Type = fields[3]
			} else if len(fields) >= 4 && fields[1] == "HELP" {
				f := family(fields[2])
				f.Help = fields[3]
			}
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo+1, err)
		}
		f := family(sample.Name)
		f.Samples = append(f.Samples, sample)
	}
	return fams, nil
}

func parseSample(line string) (MetricSample, error) {
	s := MetricSample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return s, fmt.Errorf("unbalanced braces in %q", line)
		}
		if err := parseLabels(rest[i+1:j], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return s, fmt.Errorf("want 'name value', got %q", line)
		}
		s.Name, rest = fields[0], fields[1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string, into map[string]string) error {
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return fmt.Errorf("malformed labels %q", body)
		}
		name := strings.TrimSpace(body[:eq])
		rest := body[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i+1])
				}
				i++
				continue
			}
			if rest[i] == '"' {
				break
			}
			val.WriteByte(rest[i])
		}
		if i == len(rest) {
			return fmt.Errorf("unterminated label value in %q", body)
		}
		into[name] = val.String()
		body = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
		body = strings.TrimSpace(body)
	}
	return nil
}

// HistogramQuantile computes the nearest-rank quantile from a parsed
// histogram family's _bucket samples (cumulative counts), mirroring
// serve.Histogram.Quantile's bucket-upper-bound semantics — the tool tests
// use it to check that /metrics and /stats agree.
func HistogramQuantile(f *MetricFamily, p float64, match map[string]string) (float64, error) {
	type bucket struct {
		le  float64
		cum float64
	}
	var buckets []bucket
	for _, s := range f.Samples {
		if s.Name != f.Name+"_bucket" {
			continue
		}
		if !labelsMatch(s.Labels, match) {
			continue
		}
		leStr := s.Labels["le"]
		le := 0.0
		if leStr == "+Inf" {
			le = inf()
		} else {
			var err error
			le, err = strconv.ParseFloat(leStr, 64)
			if err != nil {
				return 0, fmt.Errorf("obs: bucket le %q: %w", leStr, err)
			}
		}
		buckets = append(buckets, bucket{le, s.Value})
	}
	if len(buckets) == 0 {
		return 0, fmt.Errorf("obs: family %s has no matching buckets", f.Name)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, nil
	}
	rank := p * total
	for _, b := range buckets {
		if b.cum >= rank && b.cum > 0 {
			return b.le, nil
		}
	}
	return buckets[len(buckets)-1].le, nil
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

func inf() float64 {
	v, _ := strconv.ParseFloat("+Inf", 64)
	return v
}
