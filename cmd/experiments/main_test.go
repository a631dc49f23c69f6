package main

import (
	"io"
	"testing"
)

func TestSelectiveExperiments(t *testing.T) {
	// The fast experiments; the trained ones run at their default scale and
	// are exercised in internal/experiments' own tests, so only spot-check
	// the wiring here.
	for _, which := range []string{"table1", "figure3", "guarantee"} {
		if err := run([]string{"-which", which}, io.Discard); err != nil {
			t.Fatalf("%s: %v", which, err)
		}
	}
}

func TestExperimentsCoverageAndRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments take a few seconds")
	}
	for _, which := range []string{"coverage", "rollback"} {
		if err := run([]string{"-which", which}, io.Discard); err != nil {
			t.Fatalf("%s: %v", which, err)
		}
	}
}

func TestExperimentsErrors(t *testing.T) {
	if err := run([]string{"-which", "bogus"}, io.Discard); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := run([]string{"-notaflag"}, io.Discard); err == nil {
		t.Error("bad flag should fail")
	}
}
