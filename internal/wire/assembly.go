package wire

import (
	"fmt"
	"time"

	"nowrender/internal/fb"
)

// Assembly tracks partially delivered frames over an absolute frame
// range [start, start+len(frames)). The farm master uses one for the
// master-routed path; each compositor sink runs one over its frame
// shard; and under DFB the master keeps a pixel-free one (via
// DeliverMeta) purely for completion and requeue bookkeeping.
type Assembly struct {
	w, h    int
	start   int
	frames  []*fb.Framebuffer
	missing []int // pixels still undelivered per frame
	done    []time.Duration
	// seen records exactly which (frame, region) results have landed, so
	// speculative re-issue and post-failure retries can deliver the same
	// region twice: the duplicate is dropped instead of erroring. The
	// pixels are deterministic, so first-wins loses nothing.
	seen map[regionKey]bool
}

// regionKey identifies one delivered result.
type regionKey struct {
	frame int
	rect  fb.Rect
}

// NewAssemblyRange tracks absolute frames [start, end).
func NewAssemblyRange(w, h, start, end int) *Assembly {
	n := end - start
	a := &Assembly{
		w: w, h: h, start: start,
		frames:  make([]*fb.Framebuffer, n),
		missing: make([]int, n),
		done:    make([]time.Duration, n),
		seen:    make(map[regionKey]bool),
	}
	for i := range a.missing {
		a.missing[i] = w * h
	}
	return a
}

// Start returns the first absolute frame tracked.
func (a *Assembly) Start() int { return a.start }

// Len returns the number of frames tracked.
func (a *Assembly) Len() int { return len(a.frames) }

// Delivered reports whether this exact (frame, region) result already
// landed.
func (a *Assembly) Delivered(absFrame int, region fb.Rect) bool {
	return a.seen[regionKey{absFrame, region}]
}

// FrameComplete reports whether an absolute frame has fully assembled.
// Out-of-range frames report false.
func (a *Assembly) FrameComplete(absFrame int) bool {
	frame := absFrame - a.start
	return frame >= 0 && frame < len(a.missing) && a.missing[frame] == 0
}

// checkRegion validates the frame index and region geometry shared by
// every deliver variant.
func (a *Assembly) checkRegion(absFrame int, region fb.Rect) (frame int, err error) {
	frame = absFrame - a.start
	if frame < 0 || frame >= len(a.frames) {
		return 0, fmt.Errorf("wire: frame %d out of range", absFrame)
	}
	if region.X0 < 0 || region.Y0 < 0 || region.X1 > a.w || region.Y1 > a.h ||
		region.X0 >= region.X1 || region.Y0 >= region.Y1 {
		return 0, fmt.Errorf("wire: frame %d: region %v outside %dx%d", absFrame, region, a.w, a.h)
	}
	return frame, nil
}

// account marks (absFrame, region) delivered and returns whether that
// completed the frame at time t.
func (a *Assembly) account(frame, absFrame int, region fb.Rect, t time.Duration) (complete bool, err error) {
	a.seen[regionKey{absFrame, region}] = true
	a.missing[frame] -= region.Area()
	if a.missing[frame] < 0 {
		return false, fmt.Errorf("wire: frame %d over-delivered", frame)
	}
	if a.missing[frame] == 0 {
		if t > a.done[frame] {
			a.done[frame] = t
		}
		return true, nil
	}
	return false, nil
}

// Deliver merges region pixels (packed RGB rows of the region) into the
// absolute frame. It returns complete=true when the frame finished
// assembly at time t, and dup=true (with nothing merged) when this exact
// (frame, region) was already delivered by another worker.
func (a *Assembly) Deliver(absFrame int, region fb.Rect, pix []byte, t time.Duration) (complete, dup bool, err error) {
	frame, err := a.checkRegion(absFrame, region)
	if err != nil {
		return false, false, err
	}
	if len(pix) != region.Area()*3 {
		return false, false, fmt.Errorf("wire: frame %d region %v: got %d bytes, want %d",
			frame, region, len(pix), region.Area()*3)
	}
	if a.seen[regionKey{absFrame, region}] {
		return false, true, nil
	}
	if a.frames[frame] == nil {
		a.frames[frame] = fb.New(a.w, a.h)
	}
	a.frames[frame].CopyRect(fb.Wrap(region, pix), region)
	complete, err = a.account(frame, absFrame, region, t)
	return complete, false, err
}

// ErrDeltaBase marks a delta whose base result never landed: the
// previous frame's (frame, region) was lost in transit, so the delta
// cannot be applied. This is the one delivery failure that is NOT a
// protocol violation — the sender is honest, the network ate the base —
// so the receiver discards the delta (counting it) instead of retiring
// the worker, and the frame is re-rendered by the usual requeue path
// (or, at a compositor, a key-frame is re-requested).
var ErrDeltaBase = fmt.Errorf("wire: delta base frame not delivered")

// DeliverSpans merges a dirty-span delta into the absolute frame: the
// region is copied from the previous frame's assembled pixels, then the
// span pixels (packed RGB, span order) are applied on top. The previous
// frame's same (frame-1, region) result must have been delivered —
// otherwise ErrDeltaBase. Completion and duplicate semantics match
// Deliver.
func (a *Assembly) DeliverSpans(absFrame int, region fb.Rect, spans []fb.Span, pix []byte, t time.Duration) (complete, dup bool, err error) {
	frame, err := a.checkRegion(absFrame, region)
	if err != nil {
		return false, false, err
	}
	if len(pix) != fb.SpanArea(spans)*3 {
		return false, false, fmt.Errorf("wire: frame %d region %v: got %d span bytes, want %d",
			frame, region, len(pix), fb.SpanArea(spans)*3)
	}
	for _, s := range spans {
		if s.Y < region.Y0 || s.Y >= region.Y1 || s.X0 < region.X0 || s.X0 >= s.X1 || s.X1 > region.X1 {
			return false, false, fmt.Errorf("wire: frame %d: span y=%d [%d,%d) outside region %v",
				absFrame, s.Y, s.X0, s.X1, region)
		}
	}
	if a.seen[regionKey{absFrame, region}] {
		return false, true, nil
	}
	if frame == 0 || !a.seen[regionKey{absFrame - 1, region}] {
		return false, false, ErrDeltaBase
	}
	if a.frames[frame] == nil {
		a.frames[frame] = fb.New(a.w, a.h)
	}
	img := a.frames[frame]
	img.CopyRect(a.frames[frame-1], region)
	if err := img.ApplySpans(spans, pix); err != nil {
		return false, false, err
	}
	complete, err = a.account(frame, absFrame, region, t)
	return complete, false, err
}

// DeliverMeta records that (absFrame, region) was assembled elsewhere —
// a compositor sink confirmed delivery — without holding any pixels.
// The DFB master uses this so its completion, duplicate-drop, and
// requeue-gap bookkeeping work exactly as on the master-routed path
// while the pixel payloads bypass it entirely.
func (a *Assembly) DeliverMeta(absFrame int, region fb.Rect, t time.Duration) (complete, dup bool, err error) {
	frame, err := a.checkRegion(absFrame, region)
	if err != nil {
		return false, false, err
	}
	if a.seen[regionKey{absFrame, region}] {
		return false, true, nil
	}
	complete, err = a.account(frame, absFrame, region, t)
	return complete, false, err
}

// ResetFrame forgets every delivery of an absolute frame — the sink
// that held its partial pixels died — so the regions can be requeued
// and re-delivered without tripping the duplicate drop. Out-of-range
// frames are ignored.
func (a *Assembly) ResetFrame(absFrame int) {
	frame := absFrame - a.start
	if frame < 0 || frame >= len(a.frames) {
		return
	}
	for k := range a.seen {
		if k.frame == absFrame {
			delete(a.seen, k)
		}
	}
	a.frames[frame] = nil
	a.missing[frame] = a.w * a.h
	a.done[frame] = 0
}

// Frame returns the (possibly partial) framebuffer of an absolute frame.
func (a *Assembly) Frame(absFrame int) *fb.Framebuffer {
	return a.frames[absFrame-a.start]
}

// Frames returns the assembled framebuffers, indexed by frame-start.
func (a *Assembly) Frames() []*fb.Framebuffer { return a.frames }

// Complete errors unless every frame has fully assembled.
func (a *Assembly) Complete() error {
	for f, m := range a.missing {
		if m != 0 {
			return fmt.Errorf("wire: frame %d missing %d pixels", f, m)
		}
	}
	return nil
}
