package main

// The metric catalogue: every name the benchmark prints, with its unit and
// direction. BENCHMARK.json repeats it (a test keeps the two in step);
// README.md explains each entry and which end-to-end metric it should move.

// metricDef is one catalogue entry. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics carry
// no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
}

// endToEnd lists what a user of the system sees; every workload reports all
// of them with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ips", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"slo_met_share", "ratio", "higher", 0.05},
	{"cpu_ms_per_img", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the single-layer metrics; every workload reports all of
// them with --trace 1, zero where the workload bypasses the layer.
var perLayer = []metricDef{
	// tensor: AlexNet-shape kernel rungs (alexnet-batch).
	{"tensor.gemm_conv1_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_conv2_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_conv3_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_conv4_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_conv5_gflops", "GFLOP/s", "higher", 0},
	{"tensor.linear_fc6_n8_gflops", "GFLOP/s", "higher", 0},
	{"tensor.linear_fc6_n1_gflops", "GFLOP/s", "higher", 0},
	{"tensor.linear_fc6_n8_gbps", "GB/s", "higher", 0},
	{"tensor.linear_fc7_n8_gflops", "GFLOP/s", "higher", 0},
	{"tensor.im2col_conv2_n8_ms", "ms", "lower", 0},
	// nn: per-layer ForwardBatch at batch 8 (alexnet-batch), the N=1 twins,
	// and the demo net's non-reliable tail (frame-loop).
	{"nn.conv1_ms", "ms", "lower", 0},
	{"nn.conv2_ms", "ms", "lower", 0},
	{"nn.conv3_ms", "ms", "lower", 0},
	{"nn.conv4_ms", "ms", "lower", 0},
	{"nn.conv5_ms", "ms", "lower", 0},
	{"nn.fc6_ms", "ms", "lower", 0},
	{"nn.fc7_ms", "ms", "lower", 0},
	{"nn.fc8_ms", "ms", "lower", 0},
	{"nn.lrn_ms", "ms", "lower", 0},
	{"nn.pool_ms", "ms", "lower", 0},
	{"nn.other_ms", "ms", "lower", 0},
	{"nn.alexnet_n1_ms", "ms", "lower", 0},
	{"nn.alexnet_persample_ms", "ms", "lower", 0},
	{"nn.micro_tail_ms", "ms", "lower", 0},
	// reliable (frame-loop).
	{"reliable.conv_ms", "ms", "lower", 0},
	{"reliable.ops_per_frame", "count", "lower", 0},
	{"reliable.ns_per_op", "ns", "lower", 0},
	{"reliable.native_conv_ms", "ms", "lower", 0},
	{"reliable.overhead_x", "ratio", "lower", 0},
	{"reliable.fault_retries", "count", "lower", 0},
	{"reliable.fault_bucket_trips", "count", "lower", 0},
	{"reliable.fault_conv_ms", "ms", "lower", 0},
	// shape + sax (frame-loop).
	{"shape.qualify_ms", "ms", "lower", 0},
	{"shape.octagon_share", "ratio", "higher", 0},
	// core (frame-loop; stage shares on sched-saturate and fleet-streams).
	{"core.classify_ms", "ms", "lower", 0},
	{"core.self_ms", "ms", "lower", 0},
	{"core.allocs_per_frame", "count", "lower", 0},
	{"core.kb_per_frame", "kB", "lower", 0},
	{"core.stage_reliable_share", "ratio", "lower", 0},
	{"core.stage_qualifier_share", "ratio", "lower", 0},
	{"core.stage_cnn_share", "ratio", "lower", 0},
	{"core.decision_mismatches", "count", "lower", 0},
	// infer (sched-saturate).
	{"infer.batch8_ms", "ms", "lower", 0},
	{"infer.pool_speedup", "ratio", "higher", 0},
	// serve (sched-saturate).
	{"serve.queue_wait_ms_p50", "ms", "lower", 0},
	{"serve.queue_wait_ms_p99", "ms", "lower", 0},
	{"serve.batch_fill_ms_p50", "ms", "lower", 0},
	{"serve.backend_ms_p50", "ms", "lower", 0},
	{"serve.mean_batch", "count", "higher", 0},
	{"serve.batches", "count", "higher", 0},
	{"serve.backend_utilisation", "ratio", "higher", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.expired", "count", "lower", 0},
	{"serve.degraded", "count", "lower", 0},
	{"serve.guaranteed_p99_ms", "ms", "lower", 0},
	{"serve.fast_p99_ms", "ms", "lower", 0},
	{"serve.budget_p99_ms", "ms", "lower", 0},
	{"serve.submit_overhead_us", "us", "lower", 0},
	// hybridnetd: worker span header (fleet-streams).
	{"hybridnetd.admission_ms_p50", "ms", "lower", 0},
	{"hybridnetd.queue_ms_p50", "ms", "lower", 0},
	{"hybridnetd.batch_ms_p50", "ms", "lower", 0},
	{"hybridnetd.backend_ms_p50", "ms", "lower", 0},
	{"hybridnetd.deliver_ms_p50", "ms", "lower", 0},
	{"hybridnetd.total_ms_p50", "ms", "lower", 0},
	// shard: router span header and /stats (fleet-streams).
	{"shard.proxy_overhead_ms_p50", "ms", "lower", 0},
	{"shard.read_ms_p50", "ms", "lower", 0},
	{"shard.client_overhead_ms_p50", "ms", "lower", 0},
	{"shard.failovers", "count", "lower", 0},
	{"shard.errors", "count", "lower", 0},
	{"shard.max_shard_share", "ratio", "lower", 0},
	// gtsrb and the benchmark itself.
	{"gtsrb.render_ms", "ms", "lower", 0},
	{"gtsrb.png_encode_ms", "ms", "lower", 0},
	{"bench.gen_late_ms_p99", "ms", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"bench.calib_ns_start", "ns", "lower", 0},
	{"bench.calib_ns_end", "ns", "lower", 0},
	{"bench.stage_crosscheck_err", "ratio", "lower", 0},
}

// Metric is one reported value. Min and Max are the extremes of the same
// quantity over the run's single segments (over a probe's repeats; equal to
// Value for window totals), so Value, taken over the quiet third, may lie
// outside them; Samples is how many observations the value rests on.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet collects a run's metrics by catalogue name.
type metricSet map[string]Metric

var units = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// set records a single-valued metric; the unit comes from the catalogue, so
// a name outside it is a programming error.
func (s metricSet) set(name string, v float64) {
	s.setStat(name, stat{v, v, v, 1})
}

func (s metricSet) setStat(name string, st stat) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	s[name] = Metric{Value: st.value, Unit: unit, Min: st.min, Max: st.max, Samples: st.n}
}

// zeros returns a set holding every per-layer metric at zero: the starting
// point of a traced run, which then fills in the layers its workload uses.
func zeros() metricSet {
	s := make(metricSet, len(perLayer))
	for _, d := range perLayer {
		s.set(d.Name, 0)
	}
	return s
}
