// Package cli holds the model-loading and network-construction plumbing
// shared by the hybridnet CLI and the hybridnetd daemon, so the two
// binaries cannot drift apart on how a hybrid network is assembled
// (internal/experiments builds its Figure 3 and Table 1 SAX-row hybrid with
// DemoHybrid too) — plus the worker-mode address-report protocol
// (WriteAddrReport / ParseAddrReport) the hybridnet-router supervisor uses
// to learn a spawned worker's kernel-assigned port from its stdout, the
// http.Server both daemons serve from (NewHTTPServer) and the listen →
// serve → signal → drain lifecycle both run it under (ServeUntilSignal).
//
// # Concurrency contract
//
// ServeUntilSignal aside (it owns the process's listeners and signal
// handler; call it once, from main), everything here is a pure constructor
// or a stateless formatter: each call
// builds fresh state from its arguments (seeded RNGs included) and shares
// nothing, so all functions are safe to call from any number of goroutines.
// The networks they return carry their own concurrency rules — see
// internal/nn (immutable weights + per-call Context) and internal/core.
package cli

import (
	"fmt"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/onnxlite"
	"repro/internal/shape"
)

// StandardHybridConfig is the canonical CLI assembly: temporal DMR, the
// Sobel pair at pair in conv1, and the stop sign as the safety-critical
// class that must be qualified as an octagon.
func StandardHybridConfig(pair core.SobelPair) core.Config {
	return core.Config{
		Mode:          core.ModeTemporalDMR,
		Pair:          pair,
		SafetyClasses: map[int]shape.Class{gtsrb.StopClass: shape.ClassOctagon},
	}
}

// LoadHybrid reads an onnxlite model document and assembles the hybrid
// network it describes. The seed feeds layer construction randomness
// (dropout streams); the imported weights themselves are deterministic.
func LoadHybrid(path string, seed int64) (*core.HybridNetwork, *nn.Sequential, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	model, err := onnxlite.ReadModel(f)
	if err != nil {
		return nil, nil, err
	}
	net, cfg, err := onnxlite.Import(model, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	if cfg == nil {
		return nil, nil, fmt.Errorf("model %s carries no reliability annotations", path)
	}
	h, err := core.NewHybridNetwork(*cfg, net)
	if err != nil {
		return nil, nil, err
	}
	return h, net, nil
}

// NewBatchClassifier builds the persistent serving classifier for a hybrid
// network from CLI-level knobs: workers is the inference pool size (0 = all
// cores) and subBatch the per-worker NCHW micro-batch cap for the batched
// CNN stage (0 = batch/workers); negative values are refused. Shared by the
// serving binaries so the -workers/-subbatch flag semantics cannot drift
// from the classifier's.
func NewBatchClassifier(h *core.HybridNetwork, workers, subBatch int) (*core.BatchClassifier, error) {
	return core.NewBatchClassifier(h, workers, subBatch)
}

// DemoHybrid builds an untrained micro network with the Sobel pair
// installed and wraps it in the standard hybrid assembly. It exists for
// smoke tests, demo serving (hybridnetd -demo) and the qualifier figures
// of internal/experiments: the reliable path, qualifier and decision logic
// are all real, only the CNN weights are random.
func DemoHybrid(size, filters int, seed int64) (*core.HybridNetwork, *nn.Sequential, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := nn.DefaultMicroConfig()
	cfg.InputSize = size
	cfg.Conv1Filters = filters
	net, err := nn.NewMicroAlexNet(cfg, rng)
	if err != nil {
		return nil, nil, err
	}
	conv1, err := nn.FirstConv(net)
	if err != nil {
		return nil, nil, err
	}
	pair, err := core.InstallSobelPair(conv1, 0, 1)
	if err != nil {
		return nil, nil, err
	}
	h, err := core.NewHybridNetwork(StandardHybridConfig(pair), net)
	if err != nil {
		return nil, nil, err
	}
	return h, net, nil
}
