package farm

import (
	"fmt"
	"time"

	"nowrender/internal/coherence"
	"nowrender/internal/fb"
	"nowrender/internal/scene"
)

// WirePoint is one wire mode's measurement of the frame codec: the
// bytes each frame result costs on the wire and the encode+decode time
// it takes to get there. Serialised into BENCH_wire.json by cmd/benchtab
// so the data-path trajectory is recorded over time, and compared
// against the committed baseline by WireCheck (benchtab -check) so
// codec regressions fail CI loudly.
type WirePoint struct {
	// Mode is "full" (raw regions), "delta" (dirty-span deltas after the
	// key-frame) or "delta+span" (deltas plus the span codec).
	Mode   string `json:"mode"`
	Frames int    `json:"frames"`
	// BytesTotal is the summed encoded frameDone payloads, including the
	// mandatory frame-0 key-frame; BytesPerFrame is the average.
	BytesTotal    int64   `json:"bytes_total"`
	BytesPerFrame float64 `json:"bytes_per_frame"`
	// NSPerFrame is the average encode+decode+apply time per frame;
	// EncodeNSPerFrame and DecodeNSPerFrame split it by side, since the
	// encode half is what burns worker render budget.
	NSPerFrame       float64 `json:"ns_per_frame"`
	EncodeNSPerFrame float64 `json:"encode_ns_per_frame"`
	DecodeNSPerFrame float64 `json:"decode_ns_per_frame"`
	// KeyEncodeNS is frame 0's encode time alone (the mandatory
	// key-frame, paid once per task) and SteadyEncodeNSPerFrame the
	// average over the remaining frames — the steady-state cost a long
	// animation converges to, since the key-frame amortises as O(1/N).
	KeyEncodeNS            float64 `json:"key_encode_ns"`
	SteadyEncodeNSPerFrame float64 `json:"steady_encode_ns_per_frame"`
	// RatioVsFull is full-mode bytes divided by this mode's bytes (1.0
	// for the full mode itself): the wire-traffic reduction factor.
	RatioVsFull float64 `json:"ratio_vs_full"`
	// FramesDelta and FramesSpan count how often the encoder actually
	// chose the delta representation / kept the span-codec output.
	FramesDelta int `json:"frames_delta"`
	FramesSpan  int `json:"frames_span"`
	// Identical records the determinism check: the pixels reconstructed
	// from the decoded stream compared byte-for-byte against the render.
	Identical bool `json:"identical"`
}

// WireBench is a full wire-sweep result: the per-mode replay rows.
type WireBench struct {
	Modes []WirePoint `json:"modes"`
}

// wireSweepModes is the replay matrix, in presentation order.
var wireSweepModes = []struct {
	name  string
	flags int
}{
	{"full", 0},
	{"delta", capWireDelta},
	{"delta+span", capWireDelta | capWireSpanCodec},
}

// WireSweep measures the farm frame codec on a real render: it traces
// `frames` frames of sc at w x h through a coherence engine once,
// capturing each frame's pixels, dirty spans, and render time, then
// replays the capture through each wire mode with the production
// encoder and decoder, verifying that the reconstructed stream is
// byte-identical to the render. The encoder reads no clock, so every
// mode's byte counts are a pure function of the scene.
func WireSweep(sc *scene.Scene, w, h, frames int) (*WireBench, error) {
	if frames <= 0 || frames > sc.Frames {
		frames = sc.Frames
	}
	region := fb.NewRect(0, 0, w, h)
	eng, err := coherence.NewEngine(sc, w, h, region, 0, frames, coherence.Options{})
	if err != nil {
		return nil, err
	}
	bufs := make([]*fb.Framebuffer, frames)
	spans := make([][]fb.Span, frames)
	renderNs := make([]int64, frames)
	buf := fb.New(w, h)
	for f := 0; f < frames; f++ {
		rstart := time.Now()
		if _, err := eng.RenderFrame(f, buf); err != nil {
			return nil, err
		}
		renderNs[f] = time.Since(rstart).Nanoseconds()
		img := fb.New(w, h)
		copy(img.Pix, buf.Pix)
		bufs[f] = img
		spans[f] = append([]fb.Span(nil), eng.LastSpans()...)
	}

	// Warm-up: run the whole capture through one untimed encode+decode
	// pass so the timed loops below measure the steady state — pooled
	// buffers allocated, branch predictors and caches primed — instead
	// of folding one-time warm-up costs into whichever mode runs first.
	// Bytes are unaffected (the throwaway encoder is discarded), so the
	// committed byte baselines do not depend on this pass.
	{
		var enc frameEncoder
		warmFlags := capWireDelta | capWireSpanCodec
		for f := 0; f < frames; f++ {
			fd := frameDoneMsg{TaskID: 1, Frame: f, Region: region, ElapsedNs: renderNs[f]}
			data := enc.Encode(&fd, bufs[f], warmFlags, spans[f], f == 0)
			rd, err := decodeFrameDone(data)
			if err != nil {
				return nil, err
			}
			rd.Release()
		}
	}

	bench := &WireBench{Modes: make([]WirePoint, 0, len(wireSweepModes))}
	var fullBytes int64
	for _, mode := range wireSweepModes {
		var enc frameEncoder
		pt := WirePoint{Mode: mode.name, Frames: frames, Identical: true}
		cur := fb.New(w, h)
		var encodeNs, decodeNs int64
		// Encode and decode run as separate passes, as they do in
		// production — the worker encodes, the master decodes, on
		// different machines. Interleaving them on one core would let
		// the decode+apply+verify side (which streams two framebuffers
		// per frame) evict the encoder's working set between frames and
		// tax every encode measurement with refill cost.
		msgs := make([][]byte, frames)
		for f := 0; f < frames; f++ {
			fd := frameDoneMsg{TaskID: 1, Frame: f, Region: region, ElapsedNs: renderNs[f]}
			encStart := time.Now()
			data := enc.Encode(&fd, bufs[f], mode.flags, spans[f], f == 0)
			frameEncNs := time.Since(encStart).Nanoseconds()
			encodeNs += frameEncNs
			if f == 0 {
				pt.KeyEncodeNS = float64(frameEncNs)
			}
			pt.BytesTotal += int64(len(data))
			// The sealed bytes live in pooled scratch the next Encode
			// reuses; the copy keeps them for the decode pass (and is
			// outside the timed window).
			msgs[f] = append([]byte(nil), data...)
		}
		for f := 0; f < frames; f++ {
			decStart := time.Now()
			rd, err := decodeFrameDone(msgs[f])
			if err != nil {
				return nil, err
			}
			if rd.Kind == frameDelta {
				pt.FramesDelta++
				if err := cur.ApplySpans(rd.Spans, rd.Pix); err != nil {
					rd.Release()
					return nil, err
				}
			} else {
				copy(cur.Pix, rd.Pix)
			}
			decodeNs += time.Since(decStart).Nanoseconds()
			if rd.Encoding == encSpan {
				pt.FramesSpan++
			}
			rd.Release()
			if !cur.Equal(bufs[f]) {
				pt.Identical = false
			}
		}
		pt.BytesPerFrame = float64(pt.BytesTotal) / float64(frames)
		pt.EncodeNSPerFrame = float64(encodeNs) / float64(frames)
		pt.DecodeNSPerFrame = float64(decodeNs) / float64(frames)
		if frames > 1 {
			pt.SteadyEncodeNSPerFrame = (float64(encodeNs) - pt.KeyEncodeNS) / float64(frames-1)
		}
		pt.NSPerFrame = pt.EncodeNSPerFrame + pt.DecodeNSPerFrame
		switch {
		case mode.flags == 0:
			fullBytes = pt.BytesTotal
			pt.RatioVsFull = 1
		case pt.BytesTotal > 0:
			pt.RatioVsFull = float64(fullBytes) / float64(pt.BytesTotal)
		}
		bench.Modes = append(bench.Modes, pt)
	}
	return bench, nil
}

// Threshold bands for WireCheck. Bytes are deterministic (the encoder
// reads no clock), so their band is tight; encode timing on shared CI
// runners is noisy, so its band is wide.
const (
	// WireCheckBytesSlack allows committed-baseline drift in bytes/frame
	// before failing (scene or codec changes should instead regenerate
	// the baseline deliberately).
	WireCheckBytesSlack = 1.15
	// WireCheckEncodeSlack allows per-mode encode ns/frame drift vs the
	// baseline (absorbs runner speed differences, not algorithmic
	// regressions, which blow well past 1.75x).
	WireCheckEncodeSlack = 1.75
)

// WireCheck compares a fresh sweep against the committed baseline,
// returning one message per violation (empty = gate passes). It is the
// engine of `benchtab -wire -check`, the CI perf threshold gate.
func WireCheck(baseline, current *WireBench) []string {
	var bad []string
	base := make(map[string]WirePoint, len(baseline.Modes))
	for _, pt := range baseline.Modes {
		base[pt.Mode] = pt
	}
	swept := make(map[string]bool, len(current.Modes))
	for _, pt := range current.Modes {
		swept[pt.Mode] = true
		if !pt.Identical {
			bad = append(bad, fmt.Sprintf("%s: reconstructed pixels differ from the render", pt.Mode))
		}
		b, ok := base[pt.Mode]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: missing from committed baseline (regenerate BENCH_wire.json)", pt.Mode))
			continue
		}
		if b.BytesPerFrame > 0 && pt.BytesPerFrame > b.BytesPerFrame*WireCheckBytesSlack {
			bad = append(bad, fmt.Sprintf("%s: bytes/frame %.0f exceeds baseline %.0f x%.2f",
				pt.Mode, pt.BytesPerFrame, b.BytesPerFrame, WireCheckBytesSlack))
		}
		if b.EncodeNSPerFrame > 0 && pt.EncodeNSPerFrame > b.EncodeNSPerFrame*WireCheckEncodeSlack {
			bad = append(bad, fmt.Sprintf("%s: encode ns/frame %.0f exceeds baseline %.0f x%.2f",
				pt.Mode, pt.EncodeNSPerFrame, b.EncodeNSPerFrame, WireCheckEncodeSlack))
		}
	}
	for _, mode := range wireSweepModes {
		if !swept[mode.name] {
			bad = append(bad, fmt.Sprintf("%s: missing from sweep", mode.name))
		}
	}
	return bad
}
