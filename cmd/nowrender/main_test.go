package main

import (
	"strings"
	"testing"
)

// TestMasterModeRefusesChaos: a -chaos plan cannot reach TCP workers, so
// master mode refuses it before it listens for any.
func TestMasterModeRefusesChaos(t *testing.T) {
	err := run("newton:2", "master", "framediv", 16, 16, 32, 24, "", 0, "127.0.0.1:0",
		true, 1, 0, 1, 0, false, "", faultOpts{chaos: "seed=1,drop=0.1"})
	if err == nil || !strings.Contains(err.Error(), "nowworker") {
		t.Fatalf("master mode took -chaos: %v", err)
	}
}

// TestChaosProtectNamesTheModesWorkers: the -chaos help text's plan runs
// in virtual mode, where it protects a testbed machine; a protect= name
// of the other driver, or a plan in a one-machine mode, is refused.
func TestChaosProtectNamesTheModesWorkers(t *testing.T) {
	_, example, _ := strings.Cut(chaosUsage, "e.g. ")
	plan, _, _ := strings.Cut(example, " ")
	for _, c := range []struct{ mode, chaos, refusal string }{
		{"virtual", plan, ""},
		{"virtual", "seed=1,drop=0.1,protect=worker00", "protect=worker00"},
		{"local", "seed=1,drop=0.1,protect=indigo2-200", "protect=indigo2-200"},
		{"single", "seed=1,drop=0.1", "-chaos needs a farm"},
	} {
		err := run("newton:2", c.mode, "seqdiv", 16, 16, 32, 24, "", 2, "",
			true, 1, 0, 1, 0, false, "", faultOpts{chaos: c.chaos})
		if c.refusal == "" && err != nil || c.refusal != "" && (err == nil || !strings.Contains(err.Error(), c.refusal)) {
			t.Errorf("-mode %s -chaos %s: %v; want refusal %q", c.mode, c.chaos, err, c.refusal)
		}
	}
}
