// Package api is the serving plane's wire contract: the JSON bodies
// hybridnetd and hybridnet-router exchange with clients and with each
// other, declared once. The worker encodes these types, the router decodes
// them on its probe path and encodes its own, and loadgen, the tests and
// the CI smoke decode the same structs — so a renamed or retyped field is
// a compile error on both ends instead of a string that stopped matching.
//
// The package is a leaf: it imports nothing internal. The two bodies that
// are internal snapshots served as-is — serve.Stats on a worker's /stats,
// shard.StatsReport on the router's — stay with the packages that compute
// them; the trace and class header names live in internal/obs.
package api

import (
	"encoding/json"
	"net/http"
)

// StatusClientClosedRequest is the nginx-convention 499 for "client closed
// the connection before the server answered". net/http has no constant for
// it; both tiers use it so client disconnects stay out of the 502/503
// load-shedding accounting.
const StatusClientClosedRequest = 499

// ClassifyRequest is the POST /classify body: either a base64 PNG or the
// name of a synthetic sign to render server-side (demo and load testing).
type ClassifyRequest struct {
	ImagePNG string `json:"image_png,omitempty"`
	Sign     string `json:"sign,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

// ClassifyResponse is the 200 body of POST /classify. "class" is the CNN's
// predicted class index; service_class/degraded (adjacent in the encoding,
// so `"service_class":"budget","degraded":true` is a stable marker) report
// the tier the request was served under and whether overload degraded a
// budget request into the CNN-only pipeline.
type ClassifyResponse struct {
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

// ErrorResponse is the body of every non-200 JSON reply from either tier.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Health is a worker's GET /healthz body: liveness plus the signals the
// router feeds into placement — the live queue depth (load), its per-class
// split (class-aware load) and the rolling per-image service time
// (capacity, for adaptive weighting). Fields are in key order, the order
// the endpoint has always encoded them in.
type Health struct {
	Build Build `json:"build"`
	// ClassQueueDepths is keyed by service-class wire name: the signal the
	// router's class-aware placement reads.
	ClassQueueDepths map[string]int64 `json:"class_queue_depths"`
	QueueDepth       int64            `json:"queue_depth"`
	ServiceNS        int64            `json:"service_ns"`
	Status           string           `json:"status"`
	UptimeS          float64          `json:"uptime_s"`
}

// Build identifies a worker's compute substrate — which GEMM kernel the
// binary selected at init and what the host CPU offers — so a
// heterogeneous fleet (some workers on SIMD, some on the pure-Go fallback)
// is diagnosable from the outside.
type Build struct {
	CPUFeatures string `json:"cpu_features"`
	GemmKernel  string `json:"gemm_kernel"`
	GoArch      string `json:"go_arch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
}

// FleetHealth is the router's GET /healthz body (503 once Healthy is 0).
// ClassQueueDepths is the fleet-wide per-class backlog in the same shape a
// worker reports, so a front tier can stack routers the way routers stack
// workers.
type FleetHealth struct {
	ClassQueueDepths map[string]int64 `json:"class_queue_depths"`
	Down             int              `json:"down"`
	Healthy          int              `json:"healthy"`
	Shards           int              `json:"shards"`
	Status           string           `json:"status"`
}

// WriteJSON commits status and v as the response. An encode error is
// dropped: the status line is already on the wire, so the only failure left
// is a client that stopped reading, and nobody is there to tell.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
