package trace

import (
	"fmt"
	"sync"
	"testing"

	"nowrender/internal/fb"
)

const ptw, pth = 64, 48

// TestRenderRegionParallelMatchesSerial is the tracer half of the
// determinism contract: any thread count produces the serial bytes and
// the serial ray totals.
func TestRenderRegionParallelMatchesSerial(t *testing.T) {
	s := testScene()
	ref := newTracer(t, s, Options{})
	want := fb.New(ptw, pth)
	ref.RenderFull(want)

	for _, threads := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("threads%d", threads), func(t *testing.T) {
			ft := newTracer(t, s, Options{})
			got := fb.New(ptw, pth)
			ft.RenderRegionParallelWorkers(got, got.Bounds(), threads, -1, nil, ft.NewWorker)
			if !got.Equal(want) {
				t.Errorf("%d differing pixels at %d threads", got.DiffCount(want), threads)
			}
			if ft.Counters != ref.Counters {
				t.Errorf("counters at %d threads = %v, want %v", threads, ft.Counters, ref.Counters)
			}
		})
	}
}

// TestRenderRegionParallelSubregion checks tiling respects an offset
// region: pixels outside stay untouched, pixels inside match serial.
func TestRenderRegionParallelSubregion(t *testing.T) {
	s := testScene()
	region := fb.NewRect(10, 7, 55, 41)

	ref := newTracer(t, s, Options{})
	want := fb.New(ptw, pth)
	ref.RenderRegion(want, region)

	ft := newTracer(t, s, Options{})
	got := fb.New(ptw, pth)
	ft.RenderRegionParallelWorkers(got, region, 4, -1, nil, ft.NewWorker)
	if !got.Equal(want) {
		t.Errorf("%d differing pixels", got.DiffCount(want))
	}
}

// TestWorkersShareFrameTracer renders the same frame from many workers
// concurrently over one FrameTracer — the immutable-view guarantee the
// tile pool rests on (meaningful under -race).
func TestWorkersShareFrameTracer(t *testing.T) {
	s := testScene()
	ft := newTracer(t, s, Options{})
	want := fb.New(ptw, pth)
	ft.RenderFull(want)

	const n = 8
	imgs := make([]*fb.Framebuffer, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := ft.NewWorker(nil)
			imgs[i] = fb.New(ptw, pth)
			w.RenderFull(imgs[i])
		}(i)
	}
	wg.Wait()
	for i, img := range imgs {
		if !img.Equal(want) {
			t.Errorf("worker %d: %d differing pixels", i, img.DiffCount(want))
		}
	}
}
