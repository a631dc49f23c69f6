package onnxlite

import (
	"bytes"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/shape"
	"repro/internal/tensor"
)

func buildNet(t *testing.T, seed int64) *nn.Sequential {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := nn.NewMicroAlexNet(nn.MicroConfig{
		InputSize: 16, Conv1Filters: 4, Conv1Kernel: 3,
		Conv2Filters: 4, Hidden: 8, Classes: 3, UseLRN: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func hybridCfg() *core.Config {
	return &core.Config{
		Mode:         core.ModeTemporalDMR,
		BucketFactor: 2, BucketCeiling: 3,
		Pair:          core.SobelPair{XIdx: 0, YIdx: 1},
		SafetyClasses: map[int]shape.Class{gtsrb.StopClass: shape.ClassOctagon},
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	net := buildNet(t, 1)
	m, err := Export(net, hybridCfg())
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != FormatVersion || len(m.Layers) != net.Len() {
		t.Fatalf("model header wrong: version %d, %d layers", m.Version, len(m.Layers))
	}

	var buf bytes.Buffer
	if err := Write(m, &buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	net2, cfg2, err := Import(m2, rand.New(rand.NewSource(999)))
	if err != nil {
		t.Fatal(err)
	}
	if cfg2 == nil {
		t.Fatal("reliability config lost")
	}
	if cfg2.Mode != core.ModeTemporalDMR {
		t.Errorf("mode lost: %v", cfg2.Mode)
	}
	if cfg2.Pair != (core.SobelPair{XIdx: 0, YIdx: 1}) {
		t.Errorf("sobel pair lost: %+v", cfg2.Pair)
	}
	if cfg2.SafetyClasses[gtsrb.StopClass] != shape.ClassOctagon {
		t.Error("safety class table lost")
	}
	if cfg2.BucketFactor != 2 || cfg2.BucketCeiling != 3 {
		t.Error("bucket parameters lost")
	}

	// Weight fidelity: identical outputs on identical inputs.
	rng := rand.New(rand.NewSource(7))
	x := tensor.MustNew(3, 16, 16)
	x.FillUniform(rng, 0, 1)
	nctx := nn.NewContext()
	a, err := net.Forward(nctx, x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net2.Forward(nn.NewContext(), x)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("imported network computes different outputs")
	}
}

func TestExportWithoutReliability(t *testing.T) {
	net := buildNet(t, 2)
	m, err := Export(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reliability != nil {
		t.Error("no reliability should be emitted")
	}
	net2, cfg, err := Import(m, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if cfg != nil {
		t.Error("config should be nil without annotations")
	}
	if net2.Len() != net.Len() {
		t.Error("layer count changed")
	}
}

func TestExportValidation(t *testing.T) {
	if _, err := Export(nil, nil); err == nil {
		t.Error("nil net should fail")
	}
	net := buildNet(t, 4)
	bad := hybridCfg()
	bad.Mode = core.RedundancyMode(0)
	if _, err := Export(net, bad); err == nil {
		t.Error("unknown mode should fail")
	}
	bad = hybridCfg()
	bad.SafetyClasses = map[int]shape.Class{0: shape.Class(99)}
	if _, err := Export(net, bad); err == nil {
		t.Error("unknown shape should fail")
	}
}

func TestImportValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, _, err := Import(nil, rng); err == nil {
		t.Error("nil model should fail")
	}
	if _, _, err := Import(&Model{Version: 99}, rng); err == nil {
		t.Error("wrong version should fail")
	}
	if _, _, err := Import(&Model{Version: FormatVersion}, rng); err == nil {
		t.Error("no layers should fail")
	}
	net := buildNet(t, 6)
	m, err := Export(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Import(m, nil); err == nil {
		t.Error("nil rng should fail")
	}
	// Unknown layer type.
	m2 := *m
	m2.Layers = append([]LayerDesc(nil), m.Layers...)
	m2.Layers[0].Type = "mystery"
	if _, _, err := Import(&m2, rng); err == nil {
		t.Error("unknown layer type should fail")
	}
	// Corrupt weights.
	m3 := *m
	m3.Layers = append([]LayerDesc(nil), m.Layers...)
	m3.Layers[0].Weights = map[string]string{"weight": "!!!not base64!!!", "bias": "x"}
	if _, _, err := Import(&m3, rng); err == nil {
		t.Error("corrupt weights should fail")
	}
	// Missing weights.
	m4 := *m
	m4.Layers = append([]LayerDesc(nil), m.Layers...)
	m4.Layers[0].Weights = nil
	if _, _, err := Import(&m4, rng); err == nil {
		t.Error("missing weights should fail")
	}
	// An even LRN window has no centre channel: the file must be refused,
	// not normalised over some other window.
	m10 := *m
	m10.Layers = append([]LayerDesc(nil), m.Layers...)
	for i := range m10.Layers {
		if m10.Layers[i].Type == "lrn" {
			m10.Layers[i].Window = 4
		}
	}
	if _, _, err := Import(&m10, rng); err == nil || !strings.Contains(err.Error(), "must be odd") {
		t.Errorf("even lrn window: got %v, want the odd-window error", err)
	}
	// Bad reliability block.
	m5 := *m
	m5.Reliability = &ReliabilityDesc{Mode: "plain"}
	if _, _, err := Import(&m5, rng); err == nil {
		t.Error("missing sobel pair should fail")
	}
	m6 := *m
	m6.Reliability = &ReliabilityDesc{Mode: "weird", SobelPair: []int{0, 1}}
	if _, _, err := Import(&m6, rng); err == nil {
		t.Error("unknown mode name should fail")
	}
	m7 := *m
	m7.Reliability = &ReliabilityDesc{Mode: "plain", SobelPair: []int{1}}
	if _, _, err := Import(&m7, rng); err == nil {
		t.Error("1-entry sobel pair should fail")
	}
	m8 := *m
	m8.Reliability = &ReliabilityDesc{Mode: "plain", SobelPair: []int{0, 1},
		SafetyClasses: map[string]string{"0": "weird"}}
	if _, _, err := Import(&m8, rng); err == nil {
		t.Error("unknown shape name should fail")
	}
	m9 := *m
	m9.Reliability = &ReliabilityDesc{Mode: "plain", SobelPair: []int{0, 1},
		SafetyClasses: map[string]string{"abc": "octagon"}}
	if _, _, err := Import(&m9, rng); err == nil {
		t.Error("non-numeric class key should fail")
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	if _, err := ReadModel(strings.NewReader("{not json")); err == nil {
		t.Error("bad JSON should fail")
	}
}

func TestDocumentIsHumanReadable(t *testing.T) {
	net := buildNet(t, 7)
	m, err := Export(net, hybridCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(m, &buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, want := range []string{
		`"version": 2`, `"type": "conv2d"`, `"type": "lrn"`,
		`"mode": "temporal-dmr"`, `"sobel_pair"`,
		`"safety_classes"`, `"octagon"`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("document missing %q", want)
		}
	}
	if strings.Contains(doc, `"wiring"`) {
		t.Error("document names a wiring; version 2 has none")
	}
}

// TestImportRefusesVersion1 pins the format bump: a version-1 document,
// which may name the retired parallel wiring, is refused by the version
// check instead of being read as the one hybrid wiring there is.
func TestImportRefusesVersion1(t *testing.T) {
	m, err := Export(buildNet(t, 7), hybridCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(m, &buf); err != nil {
		t.Fatal(err)
	}
	doc := strings.Replace(buf.String(), `"version": 2`, `"version": 1`, 1)
	doc = strings.Replace(doc, `"reliability": {`, `"reliability": {
    "wiring": "parallel",`, 1)
	if !strings.Contains(doc, `"wiring": "parallel"`) || !strings.Contains(doc, `"version": 1`) {
		t.Fatal("could not build the version-1 document")
	}
	v1, err := ReadModel(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Import(v1, rand.New(rand.NewSource(1)))
	if err == nil || !strings.Contains(err.Error(), "unsupported version 1 (want 2)") {
		t.Errorf("version-1 parallel document: got %v, want the version error", err)
	}
}

// The full hybrid round trip: export a hybrid network, import it, and verify
// the rebuilt hybrid produces the same qualifier verdict.
func TestHybridRoundTripBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net, err := nn.NewMicroAlexNet(nn.MicroConfig{
		InputSize: 64, Conv1Filters: 6, Conv1Kernel: 5,
		Conv2Filters: 6, Hidden: 12, Classes: 6, UseLRN: false,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	conv1, err := nn.FirstConv(net)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := core.InstallSobelPair(conv1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Mode:          core.ModePlain,
		Pair:          pair,
		SafetyClasses: map[int]shape.Class{gtsrb.StopClass: shape.ClassOctagon},
	}
	h1, err := core.NewHybridNetwork(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Export(net, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	net2, cfg2, err := Import(m, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := core.NewHybridNetwork(*cfg2, net2)
	if err != nil {
		t.Fatal(err)
	}
	img, err := gtsrb.AngledStopSign(64, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := h1.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h2.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Class != r2.Class || r1.Decision != r2.Decision || r1.Qualifier.Class != r2.Qualifier.Class {
		t.Errorf("round-tripped hybrid disagrees: (%d,%v,%v) vs (%d,%v,%v)",
			r1.Class, r1.Decision, r1.Qualifier.Class,
			r2.Class, r2.Decision, r2.Qualifier.Class)
	}
}

// exportGolden writes the documents TestExportGoldenBytes pins: a weighted
// micro network whose safety table names every shape, then a weightless
// one-layer network under every mode.
func exportGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	write := func(net *nn.Sequential, cfg *core.Config) {
		m, err := Export(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := Write(m, &buf); err != nil {
			t.Fatal(err)
		}
	}
	cfg := hybridCfg()
	cfg.SafetyClasses = map[int]shape.Class{
		0: shape.ClassUnknown, 1: shape.ClassCircle, 2: shape.ClassTriangle,
		3: shape.ClassSquare, 14: shape.ClassOctagon,
	}
	write(buildNet(t, 1), cfg)
	relu, err := nn.NewSequential("relu", nn.NewReLU("relu1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.RedundancyMode{core.ModePlain, core.ModeTemporalDMR, core.ModeSpatialDMR, core.ModeTMR} {
		write(relu, &core.Config{Mode: mode, BucketFactor: 2, BucketCeiling: 3})
	}
	return buf.Bytes()
}

// TestExportGoldenBytes pins the exported document byte for byte, the mode
// and shape names included. Regenerate testdata/export_golden.json
// only for a deliberate change to the model format.
func TestExportGoldenBytes(t *testing.T) {
	got := exportGolden(t)
	want, err := os.ReadFile("testdata/export_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
