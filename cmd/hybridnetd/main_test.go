package main

import "testing"

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("no -model/-demo accepted")
	}
	if err := run([]string{"-demo", "-model", "x.json"}); err == nil {
		t.Error("-demo with -model accepted")
	}
}
