// Package onnxlite implements the paper's future-work proposal of a
// "platform-agnostic description of hybrid-CNNs" (Section V-B suggests
// "researching extensions to the ONNX standard"): a versioned JSON model
// format that carries the network topology, the weights, AND the
// reliability annotations a hybrid CNN needs — the redundancy mode, the
// leaky-bucket parameters, the location of the Sobel pair in conv1 and the
// safety-class/shape qualification table.
//
// The format is deliberately self-contained (weights embedded base64) so a
// single document fully reproduces a deployed hybrid network.
package onnxlite

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/shape"
	"repro/internal/tensor"
)

// FormatVersion is the current document version. Version 2 dropped the
// wiring choice (a hybrid always executes conv1 reliably and qualifies its
// Sobel channels), so a version-1 document, which may name the retired
// parallel wiring, is refused rather than read as something it is not.
const FormatVersion = 2

// Model is the top-level document.
type Model struct {
	Version     int              `json:"version"`
	Name        string           `json:"name"`
	Layers      []LayerDesc      `json:"layers"`
	Reliability *ReliabilityDesc `json:"reliability,omitempty"`
}

// LayerDesc describes one layer. Fields are populated according to Type.
type LayerDesc struct {
	Type string `json:"type"` // conv2d | relu | lrn | maxpool | dense | dropout | flatten
	Name string `json:"name"`

	// conv2d
	InChannels int `json:"in_channels,omitempty"`
	Filters    int `json:"filters,omitempty"`
	Kernel     int `json:"kernel,omitempty"`
	Stride     int `json:"stride,omitempty"`
	Pad        int `json:"pad,omitempty"`

	// dense
	In  int `json:"in,omitempty"`
	Out int `json:"out,omitempty"`

	// dropout
	Rate float32 `json:"rate,omitempty"`

	// lrn
	Window int     `json:"window,omitempty"`
	K      float64 `json:"k,omitempty"`
	Alpha  float64 `json:"alpha,omitempty"`
	Beta   float64 `json:"beta,omitempty"`

	// Weights maps parameter suffix ("weight", "bias") to the base64 of
	// the HTN1 tensor encoding.
	Weights map[string]string `json:"weights,omitempty"`
}

// ReliabilityDesc carries the hybrid annotations: how conv1 executes
// reliably (mode, leaky bucket) and which of its channels feed the shape
// qualifier.
type ReliabilityDesc struct {
	Mode          string            `json:"mode"` // plain | temporal-dmr | spatial-dmr | tmr
	BucketFactor  int               `json:"bucket_factor"`
	BucketCeiling int               `json:"bucket_ceiling"`
	SobelPair     []int             `json:"sobel_pair"`               // [xIdx, yIdx] in conv1
	SafetyClasses map[string]string `json:"safety_classes,omitempty"` // class index → shape name
}

// parseShape returns the shape class whose String is name, so the names are
// written once, by shape.Class.String.
func parseShape(name string) (shape.Class, bool) {
	for c := shape.ClassUnknown; c <= shape.ClassOctagon; c++ {
		if c.String() == name {
			return c, true
		}
	}
	return 0, false
}

func encodeTensor(t *tensor.Tensor) (string, error) {
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}

func decodeTensor(s string) (*tensor.Tensor, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("onnxlite: weight base64: %w", err)
	}
	return tensor.Read(bytes.NewReader(raw))
}

// Export converts a network (plus optional hybrid configuration) to a Model.
func Export(net *nn.Sequential, cfg *core.Config) (*Model, error) {
	if net == nil {
		return nil, fmt.Errorf("onnxlite: export needs a network")
	}
	m := &Model{Version: FormatVersion, Name: net.Name()}
	for i, l := range net.Layers() {
		var d LayerDesc
		d.Name = l.Name()
		switch v := l.(type) {
		case *nn.Conv2D:
			d.Type = "conv2d"
			d.InChannels = v.InChannels()
			d.Filters = v.Filters()
			d.Kernel = v.Kernel()
			d.Stride = v.Stride()
			d.Pad = v.Pad()
			w, err := encodeTensor(v.Weight())
			if err != nil {
				return nil, fmt.Errorf("onnxlite: layer %d weights: %w", i, err)
			}
			b, err := encodeTensor(v.Bias())
			if err != nil {
				return nil, fmt.Errorf("onnxlite: layer %d bias: %w", i, err)
			}
			d.Weights = map[string]string{"weight": w, "bias": b}
		case *nn.Dense:
			d.Type = "dense"
			d.In = v.In()
			d.Out = v.Out()
			w, err := encodeTensor(v.Weight())
			if err != nil {
				return nil, fmt.Errorf("onnxlite: layer %d weights: %w", i, err)
			}
			b, err := encodeTensor(v.Bias())
			if err != nil {
				return nil, fmt.Errorf("onnxlite: layer %d bias: %w", i, err)
			}
			d.Weights = map[string]string{"weight": w, "bias": b}
		case *nn.ReLU:
			d.Type = "relu"
		case *nn.Flatten:
			d.Type = "flatten"
		case *nn.MaxPool2D:
			d.Type = "maxpool"
			d.Kernel = v.Kernel()
			d.Stride = v.Stride()
		case *nn.Dropout:
			d.Type = "dropout"
			d.Rate = v.Rate()
		case *nn.LRN:
			d.Type = "lrn"
			d.Window = v.Window()
			d.K, d.Alpha, d.Beta = v.Constants()
		default:
			return nil, fmt.Errorf("onnxlite: layer %d has unsupported type %T", i, l)
		}
		m.Layers = append(m.Layers, d)
	}
	if cfg != nil {
		r := &ReliabilityDesc{
			Mode:          cfg.Mode.String(),
			BucketFactor:  cfg.BucketFactor,
			BucketCeiling: cfg.BucketCeiling,
			SobelPair:     []int{cfg.Pair.XIdx, cfg.Pair.YIdx},
		}
		// A name that does not parse back is an unknown value's fallback.
		if _, err := core.ParseMode(r.Mode); err != nil {
			return nil, fmt.Errorf("onnxlite: unknown mode %d", int(cfg.Mode))
		}
		if len(cfg.SafetyClasses) > 0 {
			r.SafetyClasses = make(map[string]string, len(cfg.SafetyClasses))
			for class, sh := range cfg.SafetyClasses {
				if _, ok := parseShape(sh.String()); !ok {
					return nil, fmt.Errorf("onnxlite: unknown shape class %d", int(sh))
				}
				r.SafetyClasses[fmt.Sprintf("%d", class)] = sh.String()
			}
		}
		m.Reliability = r
	}
	return m, nil
}

// Import reconstructs the network (and hybrid configuration, if the document
// carries reliability annotations) from a Model. rng seeds layer
// construction; all weights are then overwritten from the document.
func Import(m *Model, rng *rand.Rand) (*nn.Sequential, *core.Config, error) {
	if m == nil {
		return nil, nil, fmt.Errorf("onnxlite: import needs a model")
	}
	if m.Version != FormatVersion {
		return nil, nil, fmt.Errorf("onnxlite: unsupported version %d (want %d)", m.Version, FormatVersion)
	}
	if rng == nil {
		return nil, nil, fmt.Errorf("onnxlite: import needs an rng")
	}
	if len(m.Layers) == 0 {
		return nil, nil, fmt.Errorf("onnxlite: model has no layers")
	}
	layers := make([]nn.Layer, 0, len(m.Layers))
	for i, d := range m.Layers {
		switch d.Type {
		case "conv2d":
			c, err := nn.NewConv2D(d.Name, d.InChannels, d.Filters, d.Kernel, d.Stride, d.Pad, rng)
			if err != nil {
				return nil, nil, fmt.Errorf("onnxlite: layer %d: %w", i, err)
			}
			if err := loadInto(d, "weight", c.Weight()); err != nil {
				return nil, nil, fmt.Errorf("onnxlite: layer %d: %w", i, err)
			}
			if err := loadInto(d, "bias", c.Bias()); err != nil {
				return nil, nil, fmt.Errorf("onnxlite: layer %d: %w", i, err)
			}
			layers = append(layers, c)
		case "dense":
			dn, err := nn.NewDense(d.Name, d.In, d.Out, rng)
			if err != nil {
				return nil, nil, fmt.Errorf("onnxlite: layer %d: %w", i, err)
			}
			if err := loadInto(d, "weight", dn.Weight()); err != nil {
				return nil, nil, fmt.Errorf("onnxlite: layer %d: %w", i, err)
			}
			if err := loadInto(d, "bias", dn.Bias()); err != nil {
				return nil, nil, fmt.Errorf("onnxlite: layer %d: %w", i, err)
			}
			layers = append(layers, dn)
		case "relu":
			layers = append(layers, nn.NewReLU(d.Name))
		case "flatten":
			layers = append(layers, nn.NewFlatten(d.Name))
		case "maxpool":
			p, err := nn.NewMaxPool2D(d.Name, d.Kernel, d.Stride)
			if err != nil {
				return nil, nil, fmt.Errorf("onnxlite: layer %d: %w", i, err)
			}
			layers = append(layers, p)
		case "dropout":
			dr, err := nn.NewDropout(d.Name, d.Rate, rng)
			if err != nil {
				return nil, nil, fmt.Errorf("onnxlite: layer %d: %w", i, err)
			}
			layers = append(layers, dr)
		case "lrn":
			l, err := nn.NewLRN(d.Name, d.Window, d.K, d.Alpha, d.Beta)
			if err != nil {
				return nil, nil, fmt.Errorf("onnxlite: layer %d: %w", i, err)
			}
			layers = append(layers, l)
		default:
			return nil, nil, fmt.Errorf("onnxlite: layer %d has unknown type %q", i, d.Type)
		}
	}
	net, err := nn.NewSequential(m.Name, layers...)
	if err != nil {
		return nil, nil, err
	}
	if m.Reliability == nil {
		return net, nil, nil
	}
	r := m.Reliability
	cfg := &core.Config{BucketFactor: r.BucketFactor, BucketCeiling: r.BucketCeiling}
	if cfg.Mode, err = core.ParseMode(r.Mode); err != nil {
		return nil, nil, fmt.Errorf("onnxlite: unknown mode %q", r.Mode)
	}
	if len(r.SobelPair) != 2 {
		return nil, nil, fmt.Errorf("onnxlite: sobel pair must have 2 entries, got %d", len(r.SobelPair))
	}
	cfg.Pair = core.SobelPair{XIdx: r.SobelPair[0], YIdx: r.SobelPair[1]}
	if len(r.SafetyClasses) > 0 {
		cfg.SafetyClasses = make(map[int]shape.Class, len(r.SafetyClasses))
		for classStr, shapeName := range r.SafetyClasses {
			var class int
			if _, err := fmt.Sscanf(classStr, "%d", &class); err != nil {
				return nil, nil, fmt.Errorf("onnxlite: safety class key %q: %w", classStr, err)
			}
			sh, ok := parseShape(shapeName)
			if !ok {
				return nil, nil, fmt.Errorf("onnxlite: unknown shape %q", shapeName)
			}
			cfg.SafetyClasses[class] = sh
		}
	}
	return net, cfg, nil
}

func loadInto(d LayerDesc, key string, dst *tensor.Tensor) error {
	enc, ok := d.Weights[key]
	if !ok {
		return fmt.Errorf("missing %q weights", key)
	}
	t, err := decodeTensor(enc)
	if err != nil {
		return err
	}
	return dst.CopyFrom(t)
}

// Write serialises the model as indented JSON.
func Write(m *Model, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("onnxlite: encode: %w", err)
	}
	return nil
}

// ReadModel parses a model document.
func ReadModel(r io.Reader) (*Model, error) {
	var m Model
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("onnxlite: decode: %w", err)
	}
	return &m, nil
}
