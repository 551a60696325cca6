package farm

import (
	"fmt"
	"testing"

	"nowrender/internal/partition"
)

// TestThreadsByteIdenticalAcrossSchemes is the end-to-end determinism
// contract from the farm's point of view: for every partitioning scheme
// (sequence, frame, hybrid), with and without frame coherence, running
// each worker's intra-frame tile pool at 8 threads produces frames
// byte-identical to the serial Threads=1 run — and both match the
// single-machine full-render ground truth. Threads must also leave the
// virtual makespan untouched, since the cost model charges per ray, not
// per goroutine.
func TestThreadsByteIdenticalAcrossSchemes(t *testing.T) {
	sc := farmScene(6)
	want := referenceFrames(t, sc)
	schemes := []partition.Scheme{
		{Sequence: true, Adaptive: true},
		{BlockW: 16, BlockH: 16, Adaptive: true},
		{BlockW: 20, BlockH: 16, Sequence: true},
	}
	for _, coh := range []bool{false, true} {
		for _, sch := range schemes {
			label := fmt.Sprintf("%s coherence=%v", sch.Name(), coh)
			run := func(threads int) *Result {
				res, err := RenderVirtual(Config{
					Scene: sc, W: fw, H: fh, Scheme: sch, Coherence: coh,
					Threads: threads,
				})
				if err != nil {
					t.Fatalf("%s threads=%d: %v", label, threads, err)
				}
				return res
			}
			serial := run(1)
			par := run(8)
			assertFramesEqual(t, label+" threads=1 vs ground truth", serial.Frames, want)
			assertFramesEqual(t, label+" threads=8 vs threads=1", par.Frames, serial.Frames)
			if par.Makespan != serial.Makespan {
				t.Errorf("%s: makespan %v at 8 threads, want %v — thread count leaked into the cost model",
					label, par.Makespan, serial.Makespan)
			}
			if got, want := par.Run.TotalRays(), serial.Run.TotalRays(); got != want {
				t.Errorf("%s: total rays %v at 8 threads, want %v", label, got, want)
			}
		}
	}
}
