package stats

import (
	"strings"
	"testing"
	"time"

	vm "nowrender/internal/vecmath"
)

func TestRayCounters(t *testing.T) {
	var c RayCounters
	c.Add(vm.CameraRay, 10)
	c.Add(vm.ShadowRay, 5)
	c.Add(vm.CameraRay, 1)
	if c.Total() != 16 {
		t.Errorf("Total = %d", c.Total())
	}
	var d RayCounters
	d.Add(vm.ReflectedRay, 4)
	c.Merge(d)
	if c.Total() != 20 || c.ByKind[vm.ReflectedRay] != 4 {
		t.Errorf("after merge: %v", c.String())
	}
	if !strings.Contains(c.String(), "camera=11") {
		t.Errorf("String = %q", c.String())
	}
}

func TestRunStatsOrderingAndAggregates(t *testing.T) {
	var r RunStats
	// Out-of-order arrival, as from parallel workers.
	r.AddFrame(FrameStats{Frame: 2, Elapsed: 2 * time.Second})
	r.AddFrame(FrameStats{Frame: 0, Elapsed: 4 * time.Second})
	r.AddFrame(FrameStats{Frame: 1, Elapsed: 3 * time.Second})
	if r.Frames[0].Frame != 0 || r.Frames[2].Frame != 2 {
		t.Errorf("frames not sorted: %v", r.Frames)
	}
	ff, ok := r.FirstFrame()
	if !ok || ff.Frame != 0 || ff.Elapsed != 4*time.Second {
		t.Errorf("FirstFrame = %+v ok=%v", ff, ok)
	}
	if got := r.SumFrameTime(); got != 9*time.Second {
		t.Errorf("sum = %v", got)
	}
}

func TestRunStatsEmpty(t *testing.T) {
	var r RunStats
	if _, ok := r.FirstFrame(); ok {
		t.Error("FirstFrame on empty run")
	}
}

func TestTotalRays(t *testing.T) {
	var r RunStats
	f1 := FrameStats{Frame: 0}
	f1.Rays.Add(vm.CameraRay, 100)
	f2 := FrameStats{Frame: 1}
	f2.Rays.Add(vm.ShadowRay, 50)
	r.AddFrame(f1)
	r.AddFrame(f2)
	total := r.TotalRays()
	if got := total.Total(); got != 150 {
		t.Errorf("TotalRays = %d", got)
	}
}

func TestWorkerUtilisation(t *testing.T) {
	w := WorkerStats{Worker: "w1", Busy: 5 * time.Second}
	if got := w.Utilisation(10 * time.Second); got != 0.5 {
		t.Errorf("util = %v", got)
	}
	if got := w.Utilisation(0); got != 0 {
		t.Errorf("util(0) = %v", got)
	}
}

func TestTable(t *testing.T) {
	var tb Table
	tb.AddRow("scheme", "seq div", "speedup", "5.2")
	tb.AddRow("scheme", "frame div", "speedup", "7.1")
	s := tb.String()
	if !strings.Contains(s, "scheme") || !strings.Contains(s, "frame div") {
		t.Errorf("table output:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Errorf("table has %d lines:\n%s", len(lines), s)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "scheme,speedup\n") {
		t.Errorf("CSV = %q", csv)
	}
}

func TestTablePanicsOnOddArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd AddRow args did not panic")
		}
	}()
	var tb Table
	tb.AddRow("only-key")
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0:00"},
		{90 * time.Second, "1:30"},
		{time.Hour + 2*time.Minute + 3*time.Second, "1:02:03"},
		{55*time.Hour + 51*time.Minute, "55:51:00"},
		{-time.Second, "0:00"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedKeys(m)
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("SortedKeys = %v", got)
	}
}
