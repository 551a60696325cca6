package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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

// TestEverySchemeRenders: every -scheme value runs in virtual mode and
// writes the same frames, and a name partition.Parse does not know
// (seqdiv-weighted among them) is refused before rendering.
func TestEverySchemeRenders(t *testing.T) {
	var want [][]byte
	for _, scheme := range []string{"seqdiv", "seqdiv-static", "framediv", "hybrid", "pixeldiv"} {
		dir := t.TempDir()
		if err := run("newton:2", "virtual", scheme, 8, 6, 16, 12, dir, 0, "",
			true, 1, 0, 1, 0, false, "", faultOpts{}); err != nil {
			t.Fatalf("-scheme %s: %v", scheme, err)
		}
		for f := range 2 {
			got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("frame%04d.tga", f)))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) <= f {
				want = append(want, got)
			} else if !bytes.Equal(got, want[f]) {
				t.Errorf("-scheme %s: frame %d differs from -scheme seqdiv's", scheme, f)
			}
		}
	}
	err := run("newton:2", "virtual", "seqdiv-weighted", 8, 6, 16, 12, "", 0, "",
		true, 1, 0, 1, 0, false, "", faultOpts{})
	if err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Errorf("-scheme seqdiv-weighted: %v, want an unknown-scheme error", err)
	}
}
