package main

import (
	"reflect"
	"strings"
	"testing"

	"nowrender/internal/cluster"
	"nowrender/internal/service"
)

func TestParseTenants(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[string]float64 // nil: no allow list, any tenant admitted
		bad  bool               // parseTenants must refuse in
	}{
		{in: "", want: nil},
		{in: "alice", want: map[string]float64{"alice": 1}},
		{in: "alice=3,bob, carol = 0.5 ", want: map[string]float64{"alice": 3, "bob": 1, "carol": 0.5}},
		{in: "alice,,bob,", want: map[string]float64{"alice": 1, "bob": 1}},
		{in: "alice=3,alice=1", bad: true},
		{in: "alice,alice", bad: true},
		{in: "=2", bad: true},
		{in: "alice=0", bad: true},
		{in: "alice=-1", bad: true},
		{in: "alice=x", bad: true},
		{in: ",", bad: true},
	} {
		got, err := parseTenants(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("parseTenants(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseTenants(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// TestParseChaosProtectsWorkers: the -chaos help text's plan protects a
// worker of each driver under the default flags; a protect= name of no
// driver is refused.
func TestParseChaosProtectsWorkers(t *testing.T) {
	_, example, _ := strings.Cut(chaosUsage, "e.g. ")
	example, _, _ = strings.Cut(example, " ")
	uniform := service.Config{Machines: cluster.Uniform(2, 1, 64)}
	for _, tc := range []struct {
		spec string
		cfg  service.Config
		bad  bool
	}{
		{spec: ""},
		{spec: example},
		{spec: "drop=0.1,protect=ws01", cfg: uniform},
		{spec: "drop=0.1,protect=worker01", cfg: uniform},
		{spec: "drop=0.1,protect=ws01", bad: true},
		{spec: "drop=0.1,protect=worker02", cfg: uniform, bad: true},
	} {
		if _, err := parseChaos(tc.spec, tc.cfg); (err != nil) != tc.bad {
			t.Errorf("parseChaos(%q) = %v, want refusal %v", tc.spec, err, tc.bad)
		}
	}
}
