package farm

import (
	"strings"
	"testing"
)

// checkFixture builds a baseline/current WireBench pair that passes
// WireCheck cleanly; tests then break one property at a time.
func checkFixture() (*WireBench, *WireBench) {
	modes := []WirePoint{
		{Mode: "full", BytesPerFrame: 100000, EncodeNSPerFrame: 90000, Identical: true},
		{Mode: "delta", BytesPerFrame: 36000, EncodeNSPerFrame: 22000, Identical: true},
		{Mode: "delta+span", BytesPerFrame: 17500, EncodeNSPerFrame: 150000, Identical: true},
	}
	mk := func() *WireBench { return &WireBench{Modes: append([]WirePoint(nil), modes...)} }
	return mk(), mk()
}

func (b *WireBench) mode(name string) *WirePoint {
	for i := range b.Modes {
		if b.Modes[i].Mode == name {
			return &b.Modes[i]
		}
	}
	return nil
}

func wantViolation(t *testing.T, bad []string, substr string) {
	t.Helper()
	for _, m := range bad {
		if strings.Contains(m, substr) {
			return
		}
	}
	t.Errorf("no violation containing %q in %v", substr, bad)
}

func TestWireCheckPasses(t *testing.T) {
	base, cur := checkFixture()
	if bad := WireCheck(base, cur); len(bad) != 0 {
		t.Fatalf("clean fixture failed the gate: %v", bad)
	}
}

func TestWireCheckCatchesMismatch(t *testing.T) {
	base, cur := checkFixture()
	cur.mode("delta+span").Identical = false
	wantViolation(t, WireCheck(base, cur), "differ from the render")
}

func TestWireCheckCatchesByteRegression(t *testing.T) {
	base, cur := checkFixture()
	cur.mode("delta+span").BytesPerFrame *= 1.5
	wantViolation(t, WireCheck(base, cur), "bytes/frame")
}

func TestWireCheckCatchesEncodeRegression(t *testing.T) {
	base, cur := checkFixture()
	cur.mode("delta").EncodeNSPerFrame *= 2.5
	wantViolation(t, WireCheck(base, cur), "encode ns/frame")
}

func TestWireCheckCatchesMissingMode(t *testing.T) {
	base, cur := checkFixture()
	cur.Modes = cur.Modes[:2] // drop delta+span
	wantViolation(t, WireCheck(base, cur), "missing from sweep")
}

func TestWireCheckMissingBaselineMode(t *testing.T) {
	base, cur := checkFixture()
	base.Modes = base.Modes[1:]
	wantViolation(t, WireCheck(base, cur), "missing from committed baseline")
}

// TestWireSweepSmoke runs the real sweep on a small render and checks
// the structural properties every emitted BENCH_wire.json must have:
// one row per mode, byte-identical reconstruction everywhere, and the
// key/steady encode split populated. Fed back to WireCheck as its own
// baseline, such a sweep must pass the gate.
func TestWireSweepSmoke(t *testing.T) {
	sc := farmScene(4)
	bench, err := WireSweep(sc, 64, 48, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Modes) != len(wireSweepModes) {
		t.Fatalf("%d mode rows, want %d", len(bench.Modes), len(wireSweepModes))
	}
	for _, pt := range bench.Modes {
		if !pt.Identical {
			t.Errorf("%s: reconstruction not byte-identical", pt.Mode)
		}
		if pt.Frames != 4 || pt.BytesTotal <= 0 || pt.EncodeNSPerFrame <= 0 {
			t.Errorf("%s: implausible row %+v", pt.Mode, pt)
		}
		if pt.KeyEncodeNS <= 0 || pt.SteadyEncodeNSPerFrame <= 0 {
			t.Errorf("%s: key/steady encode split not populated", pt.Mode)
		}
	}
	if span := bench.mode("delta+span"); span.FramesSpan == 0 {
		t.Error("delta+span row used no span payloads")
	}
	for _, msg := range WireCheck(bench, bench) {
		t.Errorf("self-baseline violation: %s", msg)
	}
}
