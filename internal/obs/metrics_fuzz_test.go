package obs

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// renderFamilies writes parsed families back out in exposition format using
// the same escaping the PromWriter path uses (series/formatValue), so the
// fuzz target can state parse∘render as a fixed point.
func renderFamilies(fams map[string]*MetricFamily) string {
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := fams[name]
		if f.Type != "" {
			fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		}
		for _, s := range f.Samples {
			labels := make([]Label, 0, len(s.Labels))
			for k, v := range s.Labels {
				labels = append(labels, Label{Name: k, Value: v})
			}
			sort.Slice(labels, func(i, j int) bool { return labels[i].Name < labels[j].Name })
			fmt.Fprintf(&b, "%s %s\n", series(s.Name, labels), formatValue(s.Value))
		}
	}
	return b.String()
}

func sameSample(a, b MetricSample) bool {
	if a.Name != b.Name || len(a.Labels) != len(b.Labels) {
		return false
	}
	for k, v := range a.Labels {
		if b.Labels[k] != v {
			return false
		}
	}
	if math.IsNaN(a.Value) || math.IsNaN(b.Value) {
		return math.IsNaN(a.Value) && math.IsNaN(b.Value)
	}
	return a.Value == b.Value
}

// sampleKey is a canonical string for multiset comparison of samples.
func sampleKey(s MetricSample) string {
	labels := make([]string, 0, len(s.Labels))
	for k, v := range s.Labels {
		labels = append(labels, fmt.Sprintf("%q=%q", k, v))
	}
	sort.Strings(labels)
	return fmt.Sprintf("%q{%s} %x", s.Name, strings.Join(labels, ","), math.Float64bits(s.Value))
}

// allSampleKeys flattens every family's samples into a sorted key list.
func allSampleKeys(fams map[string]*MetricFamily) []string {
	var keys []string
	for _, f := range fams {
		for _, s := range f.Samples {
			keys = append(keys, sampleKey(s))
		}
	}
	sort.Strings(keys)
	return keys
}

// equalFamilies is strict structural equality: same keys, types, samples
// in order.
func equalFamilies(a, b map[string]*MetricFamily) bool {
	if len(a) != len(b) {
		return false
	}
	for name, fa := range a {
		fb := b[name]
		if fb == nil || fa.Type != fb.Type || len(fa.Samples) != len(fb.Samples) {
			return false
		}
		for i := range fa.Samples {
			if !sameSample(fa.Samples[i], fb.Samples[i]) {
				return false
			}
		}
	}
	return true
}

// FuzzParsePrometheus holds the parser to three properties on arbitrary
// input: it never panics; anything it accepts survives a render→parse
// round trip with every sample intact (the renderer and parser agree on
// escaping); and the round trip is idempotent from the first re-render
// (family grouping can legitimately shift once — a _bucket line seen
// before its # TYPE header starts life as its own family — but never
// again). The seed corpus is the real thing: a full WriteServeStats
// exposition plus hand-picked escaping edge cases.
func FuzzParsePrometheus(f *testing.F) {
	var b bytes.Buffer
	p := NewPromWriter(&b)
	st := serve.Stats{Submitted: 10, Completed: 9, ServiceTime: 3 * time.Millisecond}
	h := serve.NewHistogram()
	for i := 1; i <= 50; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	st.LatencyHist = h
	WriteServeStats(p, st, Label{Name: "shard", Value: "0"})
	f.Add(b.String())
	f.Add("")
	f.Add("# HELP m a help\n# TYPE m counter\nm 1\n")
	f.Add(`m{a="x\"y",b="z\\"} 2`)
	f.Add("m{a=\"line\\nbreak\"} 3\nm{a=\"\"} +Inf\nm NaN\n")
	f.Add("lat_bucket{le=\"0.1\"} 4\n# TYPE lat histogram\nlat_bucket{le=\"+Inf\"} 9\nlat_sum 2\nlat_count 9\n")
	f.Add("m{} 5")
	f.Add("m 1e300")

	f.Fuzz(func(t *testing.T, text string) {
		fams, err := ParsePrometheus(text)
		if err != nil {
			return // rejecting malformed input is fine; panicking is not
		}
		rendered := renderFamilies(fams)
		again, err := ParsePrometheus(rendered)
		if err != nil {
			t.Fatalf("accepted input re-rendered unparseable: %v\ninput: %q\nrendered: %q", err, text, rendered)
		}
		// Property 2: no sample gained, lost or altered.
		k1, k2 := allSampleKeys(fams), allSampleKeys(again)
		if len(k1) != len(k2) {
			t.Fatalf("round trip changed sample count %d -> %d\ninput: %q\nrendered: %q", len(k1), len(k2), text, rendered)
		}
		for i := range k1 {
			if k1[i] != k2[i] {
				t.Fatalf("round trip changed a sample: %s -> %s\ninput: %q\nrendered: %q", k1[i], k2[i], text, rendered)
			}
		}
		// Property 3: a second round trip is a strict fixed point.
		final, err := ParsePrometheus(renderFamilies(again))
		if err != nil {
			t.Fatalf("second re-render unparseable: %v\ninput: %q", err, text)
		}
		if !equalFamilies(again, final) {
			t.Fatalf("round trip not idempotent\ninput: %q\nrendered: %q", text, rendered)
		}
	})
}

// TestWriteServeStatsRoundTrip is the deterministic half of the fuzz
// property: the full golden exposition parses back with every family
// intact, and the parsed service-time gauge matches the input stat.
func TestWriteServeStatsRoundTrip(t *testing.T) {
	var b bytes.Buffer
	p := NewPromWriter(&b)
	st := goldenStats()
	st.ServiceTime = 321250 * time.Microsecond
	WriteServeStats(p, st, Label{Name: "shard", Value: "2"})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(b.String())
	if err != nil {
		t.Fatal(err)
	}
	rendered := renderFamilies(fams)
	again, err := ParsePrometheus(rendered)
	if err != nil {
		t.Fatalf("re-render unparseable: %v", err)
	}
	if len(again) != len(fams) {
		t.Fatalf("family count %d -> %d", len(fams), len(again))
	}
	g := fams["hybridnet_service_time_seconds"]
	if g == nil || len(g.Samples) == 0 {
		t.Fatal("service time family missing")
	}
	if v := g.Samples[0].Value; v != 0.32125 {
		t.Fatalf("service time %v, want 0.32125", v)
	}
	if g.Samples[0].Labels["shard"] != "2" {
		t.Fatalf("labels %v, want shard=2", g.Samples[0].Labels)
	}
}
