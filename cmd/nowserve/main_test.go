package main

import (
	"reflect"
	"testing"
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
