package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogueWellFormed checks the catalogue against the limits a
// BENCHMARK.json must keep.
func TestCatalogueWellFormed(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not well-formed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.BaseReps < 1 {
			t.Errorf("workload %s: %d repetitions", w.Name, w.BaseReps)
		}
	}
	metric := func(m metricDef) {
		t.Helper()
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is not well-formed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	setup := false
	for _, m := range endToEnd {
		metric(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s, unit s, lower is better")
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	for _, m := range perLayer {
		metric(m)
	}
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json and the code
// listing the same names, units, directions and bounds.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, fromCode any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	code, _ := json.Marshal(manifest())
	if err := json.Unmarshal(code, &fromCode); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, fromCode) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}

func quickRun(t *testing.T, workload string, seed int, trace, corrupt bool) *runResult {
	t.Helper()
	res, err := runWorkload(runConfig{
		workload: workload, seed: seed, seconds: runSeconds, trace: trace, quick: true, corrupt: corrupt, outDir: t.TempDir(),
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return res
}

// TestQuickEveryWorkload is the smoke run: every workload delivers
// correct frames and reports every metric of its mode, by name.
func TestQuickEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := quickRun(t, w.Name, 1, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || res.exitCode() != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d errors=%v", w.Name, trace, res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			if !res.Quick {
				t.Errorf("%s: quick run not flagged", w.Name)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, d.Name, v.Unit, d.Unit)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v.Value)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil || len(line.Metrics) != len(defs) {
				t.Errorf("%s: contract line %q: %v", w.Name, res.contractLine(), err)
			}
		}
	}
}

// TestOracleCatchesFlippedByte flips one byte of one delivered frame -
// raw pixels on the direct path, TGA bytes on the HTTP path - and wants
// a failure counted and a non-zero exit.
func TestOracleCatchesFlippedByte(t *testing.T) {
	for _, name := range []string{"newton-fc", "newton-service-replay"} {
		res := quickRun(t, name, 1, false, true)
		if res.Failed != 1 || res.Correct || res.exitCode() == 0 {
			t.Errorf("%s: flipped byte gave failed=%d correct=%v exit=%d", name, res.Failed, res.Correct, res.exitCode())
		}
	}
}

// TestSeedPicksWindow: two seeds render different frames, both right.
func TestSeedPicksWindow(t *testing.T) {
	a := quickRun(t, "newton-plain", 1, false, false)
	b := quickRun(t, "newton-plain", 2, false, false)
	if a.RefDigest == b.RefDigest || a.Window == b.Window {
		t.Errorf("seeds 1 and 2 gave the same input: windows %v %v, digests %s %s", a.Window, b.Window, a.RefDigest, b.RefDigest)
	}
	if a.Failed != 0 || b.Failed != 0 {
		t.Errorf("failed frames: seed 1 %d, seed 2 %d", a.Failed, b.Failed)
	}
	if again := quickRun(t, "newton-plain", 1, false, false); again.RefDigest != a.RefDigest {
		t.Errorf("seed 1 twice gave digests %s and %s", a.RefDigest, again.RefDigest)
	}
}

func TestRepCountFollowsSeconds(t *testing.T) {
	for _, c := range []struct {
		base    int
		seconds float64
		quick   bool
		want    int
	}{{7, runSeconds, false, 7}, {7, 2 * runSeconds, false, 14}, {7, 1, false, 1}, {7, 0.1, false, 1}, {13, 10, true, 1}} {
		if got := repCount(c.base, c.seconds, c.quick); got != c.want {
			t.Errorf("repCount(%d, %v, %v) = %d, want %d", c.base, c.seconds, c.quick, got, c.want)
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	time.Sleep(2 * time.Millisecond)
	inner()
	outer()
	var o, i selfTime
	for _, st := range tr.selfTimes() {
		switch st.Name {
		case "outer":
			o = st
		case "inner":
			i = st
		}
	}
	if i.Self != i.Total || o.Self != o.Total-i.Total || o.Total < i.Total {
		t.Errorf("outer %+v inner %+v", o, i)
	}
	var nilTracer *tracer
	nilTracer.begin("ignored")()
	if got := nilTracer.selfTimes(); got != nil {
		t.Errorf("nil tracer recorded %v", got)
	}
}

func suiteFile(t *testing.T, makespan, calib float64, quick bool) string {
	t.Helper()
	s := suiteResult{Quick: quick, Workloads: map[string]*suiteWorkload{}}
	for _, w := range workloads {
		sw := &suiteWorkload{Correct: true, CalibMS: calib, EndToEnd: map[string]metricValue{}}
		for _, d := range endToEnd {
			sw.EndToEnd[d.Name] = metricValue{Value: 1, Unit: d.Unit}
		}
		sw.EndToEnd["makespan_s"] = metricValue{Value: makespan, Unit: "s"}
		s.Workloads[w.Name] = sw
	}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := writeJSON(path, s); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	base := suiteFile(t, 1, 30, false)
	var bound float64
	for _, d := range endToEnd {
		if d.Name == "makespan_s" {
			bound = d.Bound
		}
	}
	for _, c := range []struct {
		name     string
		other    string
		breaches int
	}{
		{"same", suiteFile(t, 1, 30, false), 0},
		{"within bound", suiteFile(t, 1+bound/2, 30, false), 0},
		{"faster", suiteFile(t, 0.5, 30, false), 0},
		{"breach", suiteFile(t, 1+2*bound, 30, false), len(workloads)},
		{"unresolved: machine slowed down", suiteFile(t, 1+2*bound, 33, false), 0},
	} {
		got, err := compareFiles(base, c.other, io.Discard)
		if err != nil || got != c.breaches {
			t.Errorf("%s: %d breaches (err %v), want %d", c.name, got, err, c.breaches)
		}
	}
	if _, err := compareFiles(base, suiteFile(t, 1, 30, true), io.Discard); err == nil {
		t.Error("comparing -quick results must be refused")
	}
}
