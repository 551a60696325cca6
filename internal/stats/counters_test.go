package stats

import (
	"reflect"
	"slices"
	"testing"
)

// TestEveryFieldHasOneRow: every uint64 of a tabled struct, a field or
// an array element, is named by exactly one row of its table, so no view
// can miss it; a field of another type must be one its Merge handles by
// hand.
func TestEveryFieldHasOneRow(t *testing.T) {
	checkRows(t, FaultTable)
	checkRows(t, WireTable, "BaseMissByWorker")
	checkRows(t, objSpaceTable, "Shards", "PerShard")
	checkRows(t, ShardTable, "Objects", "Tris")
	checkRows(t, CacheTable)
}

func checkRows[T any](t *testing.T, rows []Counter[T], byHand ...string) {
	t.Helper()
	var c T
	named := map[*uint64]int{}
	for _, r := range rows {
		if r.Field != nil {
			named[r.Field(&c)]++
		}
	}
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		var cells []reflect.Value
		switch {
		case f.Kind() == reflect.Uint64:
			cells = []reflect.Value{f}
		case f.Kind() == reflect.Array && f.Type().Elem().Kind() == reflect.Uint64:
			for k := 0; k < f.Len(); k++ {
				cells = append(cells, f.Index(k))
			}
		case !slices.Contains(byHand, name):
			t.Errorf("%T.%s is neither a uint64 nor merged by hand", c, name)
		}
		for _, cell := range cells {
			p := cell.Addr().Interface().(*uint64)
			if named[p] != 1 {
				t.Errorf("%T.%s: %d rows name it, want 1", c, name, named[p])
			}
			delete(named, p)
		}
	}
	if len(named) > 0 {
		t.Errorf("%T: %d rows name no field of it", c, len(named))
	}
}

// TestMergeAddsCountersAndKeepsPeaks: Merge sums counters, keeps the
// larger gauge, and merging into a zero value copies the map and slice.
func TestMergeAddsCountersAndKeepsPeaks(t *testing.T) {
	var w WireStats
	o := WireStats{FramesFull: 2, WireBytesByEnc: [2]uint64{3, 4}}
	o.AddBaseMiss("ws00")
	w.Merge(o)
	w.Merge(o)
	if w.FramesFull != 4 || w.WireBytesByEnc != [2]uint64{6, 8} || w.DeltaBaseMisses != 2 || w.BaseMissByWorker["ws00"] != 2 {
		t.Errorf("merged wire stats = %+v", w)
	}
	if o.BaseMissByWorker["ws00"] != 1 {
		t.Error("Merge wrote through to the merged-in map")
	}
	var os ObjSpaceStats
	os.Merge(ObjSpaceStats{Shards: 2, RaysForwarded: 5, PeakResidentBytes: 9, PerShard: []ObjSpaceShard{{RaysForwarded: 5, ResidentBytes: 9}}})
	os.Merge(ObjSpaceStats{Shards: 2, RaysForwarded: 1, PeakResidentBytes: 7, PerShard: []ObjSpaceShard{{RaysForwarded: 1, ResidentBytes: 7}}})
	if os.RaysForwarded != 6 || os.PeakResidentBytes != 9 || os.PerShard[0] != (ObjSpaceShard{RaysForwarded: 6, ResidentBytes: 9}) {
		t.Errorf("merged objspace stats = %+v", os)
	}
}
