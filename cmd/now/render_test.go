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
	code, stdout, stderr := runNow("render", "-scene", "newton:2", "-mode", "master", "-blockw", "16", "-blockh", "16",
		"-size", "32x24", "-workers", "0", "-listen", "127.0.0.1:0", "-threads", "1", "-chaos", "seed=1,drop=0.1")
	if code != 2 || !strings.Contains(stderr, "now worker") || strings.Contains(stdout, "listening") {
		t.Fatalf("master mode took -chaos: exit %d\n%s%s", code, stdout, stderr)
	}
}

// TestChaosProtectNamesTheModesWorkers: the -chaos help text's plan runs
// in virtual mode, where it protects a testbed machine; a protect= name
// of the other driver, or a plan in a one-machine mode, is refused.
func TestChaosProtectNamesTheModesWorkers(t *testing.T) {
	_, example, _ := strings.Cut(usage["chaos"], "e.g. ")
	plan, _, _ := strings.Cut(example, " ")
	for _, c := range []struct{ mode, chaos, refusal string }{
		{"virtual", plan, ""},
		{"virtual", "seed=1,drop=0.1,protect=worker00", "protect=worker00"},
		{"local", "seed=1,drop=0.1,protect=indigo2-200", "protect=indigo2-200"},
		{"single", "seed=1,drop=0.1", "-chaos needs a farm"},
	} {
		code, _, stderr := runNow("render", "-scene", "newton:2", "-mode", c.mode, "-scheme", "seqdiv", "-blockw", "16", "-blockh", "16",
			"-size", "32x24", "-workers", "2", "-threads", "1", "-chaos", c.chaos)
		if c.refusal == "" && code != 0 || c.refusal != "" && (code != 2 || !strings.Contains(stderr, c.refusal)) {
			t.Errorf("-mode %s -chaos %s: exit %d %s; want refusal %q", c.mode, c.chaos, code, stderr, c.refusal)
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
		if code, _, stderr := runNow("render", "-scene", "newton:2", "-scheme", scheme, "-blockw", "8", "-blockh", "6",
			"-size", "16x12", "-out", dir, "-workers", "0", "-threads", "1"); code != 0 {
			t.Fatalf("-scheme %s: exit %d\n%s", scheme, code, stderr)
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
	code, stdout, stderr := runNow("render", "-scene", "newton:2", "-scheme", "seqdiv-weighted", "-size", "16x12")
	if code == 0 || !strings.Contains(stderr, "unknown scheme") || strings.Contains(stdout, "rays:") {
		t.Errorf("-scheme seqdiv-weighted: exit %d %s, want an unknown-scheme error", code, stderr)
	}
}
