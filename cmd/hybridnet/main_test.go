package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/onnxlite"
)

func TestTrainQualifyEvalCampaignFlow(t *testing.T) {
	model := filepath.Join(t.TempDir(), "model.json")

	if err := run([]string{"train", "-out", model, "-perclass", "6", "-epochs", "3", "-filters", "8"}); err != nil {
		t.Fatalf("train: %v", err)
	}
	for _, sign := range []string{"stop", "parking"} {
		if err := run([]string{"qualify", "-model", model, "-sign", sign}); err != nil {
			t.Fatalf("qualify %s: %v", sign, err)
		}
	}
	if err := run([]string{"eval", "-model", model, "-perclass", "3"}); err != nil {
		t.Fatalf("eval: %v", err)
	}
	if err := run([]string{"campaign", "-model", model, "-trials", "3", "-rate", "1e-5"}); err != nil {
		t.Fatalf("campaign: %v", err)
	}
}

func TestCLIErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args should fail")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand should fail")
	}
	if err := run([]string{"qualify", "-model", "/nonexistent/model.json"}); err == nil {
		t.Error("missing model should fail")
	}
	if err := run([]string{"eval", "-model", "/nonexistent/model.json"}); err == nil {
		t.Error("missing model should fail")
	}
	if err := run([]string{"campaign", "-model", "x", "-mode", "bogus"}); err == nil {
		t.Error("unknown mode should fail")
	}
	if err := run([]string{"train", "-badflag"}); err == nil {
		t.Error("bad flag should fail")
	}

	model := filepath.Join(t.TempDir(), "m.json")
	if err := run([]string{"train", "-out", model, "-perclass", "2", "-epochs", "1", "-filters", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"qualify", "-model", model, "-sign", "nosuchsign"}); err == nil {
		t.Error("unknown sign should fail")
	}
}

func TestRenderSubcommand(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "signs")
	if err := run([]string{"render", "-out", dir, "-size", "32", "-perclass", "1"}); err != nil {
		t.Fatalf("render: %v", err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.png"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 6 {
		t.Errorf("wrote %d PNGs, want 6", len(matches))
	}
}

// TestCampaignKeepsLoadedConfig: a campaign trial classifies with the
// model it loaded — its Sobel pair, safety table and bucket — not with the
// CLI defaults, overriding only the redundancy mode and the ALUs.
func TestCampaignKeepsLoadedConfig(t *testing.T) {
	cfg := nn.DefaultMicroConfig()
	cfg.Conv1Filters = 6
	net, err := nn.NewMicroAlexNet(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	conv1, err := nn.FirstConv(net)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := core.InstallSobelPair(conv1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	hcfg := cli.StandardHybridConfig(pair)
	hcfg.BucketCeiling = 5
	model, err := onnxlite.Export(net, &hcfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := onnxlite.Write(model, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, _, err := cli.LoadHybrid(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	h, err := trialHybrid(loaded, core.ModeTMR, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := h.Config()
	if got.Pair != pair || got.BucketCeiling != 5 || got.Mode != core.ModeTMR {
		t.Errorf("trial config: pair %+v, bucket ceiling %d, mode %v; want %+v, 5, %v",
			got.Pair, got.BucketCeiling, got.Mode, pair, core.ModeTMR)
	}
	if err := run([]string{"campaign", "-model", path, "-trials", "2", "-mode", "tmr"}); err != nil {
		t.Fatalf("campaign: %v", err)
	}
}

// TestCampaignCountsSilentCorruption: a trial is judged against the
// model's fault-free answer, so unprotected execution at a high fault rate
// shows silent corruptions, while temporal DMR at the same rate shows none.
// The tally does not depend on the worker count.
func TestCampaignCountsSilentCorruption(t *testing.T) {
	h, _, err := cli.DemoHybrid(32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := campaign(h, core.ModePlain, 1e-3, 20, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SDC == 0 {
		t.Errorf("plain at 1e-3: %v, want silent corruptions", plain)
	}
	if again, err := campaign(h, core.ModePlain, 1e-3, 20, 4, 4); err != nil || again != plain {
		t.Errorf("plain with 4 workers: %v (%v), want %v", again, err, plain)
	}
	dmr, err := campaign(h, core.ModeTemporalDMR, 1e-3, 20, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dmr.SDC != 0 || dmr.Total() != 20 {
		t.Errorf("temporal-dmr at 1e-3: %v, want 20 trials and no silent corruption", dmr)
	}
	if _, err := campaign(h, core.ModePlain, 2, 1, 1, 4); err == nil {
		t.Error("a fault rate above 1 should be refused")
	}
}
