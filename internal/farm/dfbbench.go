package farm

import (
	"fmt"
	"time"

	"nowrender/internal/fb"
	"nowrender/internal/partition"
	"nowrender/internal/scene"
)

// DFBPoint is one routing mode's measurement of the master's result
// ingress: what the master itself must receive per frame when every
// pixel flows through it ("master") versus when compositor sinks take
// the pixel payloads and the master sees only control acks and
// confirmations ("dfb-N"). Serialised into BENCH_dfb.json by
// cmd/benchtab -dfb.
type DFBPoint struct {
	// Mode is "master" (every result routed through the master) or
	// "dfb-N" (N compositor sinks).
	Mode   string `json:"mode"`
	Sinks  int    `json:"sinks"`
	Frames int    `json:"frames"`
	W      int    `json:"w"`
	H      int    `json:"h"`
	// MasterIngressBytes is what the master received on the result path;
	// MasterIngressPerFrame is the average per frame.
	MasterIngressBytes    uint64  `json:"master_ingress_bytes"`
	MasterIngressPerFrame float64 `json:"master_ingress_per_frame"`
	// SinkIngressBytes is the pixel payload volume the sinks absorbed
	// instead of the master (zero in master mode).
	SinkIngressBytes uint64 `json:"sink_ingress_bytes"`
	// WireBytes totals result-path bytes across every hop.
	WireBytes   uint64 `json:"wire_bytes"`
	FramesAcked uint64 `json:"frames_acked"`
	// IngressRatio is master-mode ingress divided by this mode's ingress
	// (1.0 for master mode itself): the off-the-hot-path factor.
	IngressRatio float64 `json:"ingress_ratio"`
	// Identical records the determinism check: this mode's frames
	// compared byte-for-byte against the master-routed run's frames.
	Identical  bool    `json:"identical"`
	MakespanMS float64 `json:"makespan_ms"`
}

// DFBSweep renders the same animation through the master-routed
// pipeline and through compositor fleets of each size in sinks, on real
// in-process workers with delta+span wire frames, and reports the
// master's result-ingress bytes for each. Every DFB run's frames are
// verified byte-identical to the master-routed run — re-routing pixels
// must never change them.
func DFBSweep(sc *scene.Scene, w, h, frames, workers int, sinks []int) ([]DFBPoint, error) {
	if frames <= 0 || frames > sc.Frames {
		frames = sc.Frames
	}
	mk := func(dfb *DFBConfig) Config {
		return Config{
			Scene: sc, W: w, H: h, EndFrame: frames,
			Coherence: true, Workers: workers,
			// Whole-frame blocks: the paper's frame-division mode and the
			// DFB deployment shape — each result is one frame, so control
			// traffic is one ack+confirm pair per frame.
			Scheme:        partition.FrameDivision{BlockW: w, BlockH: h, Adaptive: true},
			WireDelta:     true,
			WireSpanCodec: true,
			DFB:           dfb,
		}
	}
	point := func(mode string, n, fcount int, res *Result, start time.Time) DFBPoint {
		return DFBPoint{
			Mode: mode, Sinks: n, Frames: fcount, W: w, H: h,
			MasterIngressBytes:    res.Wire.MasterIngressBytes,
			MasterIngressPerFrame: float64(res.Wire.MasterIngressBytes) / float64(fcount),
			SinkIngressBytes:      res.Wire.SinkIngressBytes,
			WireBytes:             res.Wire.WireBytes,
			FramesAcked:           res.Wire.FramesAcked,
			MakespanMS:            float64(time.Since(start).Microseconds()) / 1e3,
		}
	}

	start := time.Now()
	base, err := RenderLocal(mk(nil))
	if err != nil {
		return nil, fmt.Errorf("farm: dfb sweep baseline: %w", err)
	}
	bp := point("master", 0, frames, base, start)
	bp.IngressRatio = 1
	bp.Identical = true
	out := []DFBPoint{bp}

	for _, n := range sinks {
		start := time.Now()
		res, err := RenderLocal(mk(&DFBConfig{Sinks: n}))
		if err != nil {
			return nil, fmt.Errorf("farm: dfb sweep %d sinks: %w", n, err)
		}
		pt := point(fmt.Sprintf("dfb-%d", n), n, frames, res, start)
		if pt.MasterIngressBytes > 0 {
			pt.IngressRatio = float64(base.Wire.MasterIngressBytes) / float64(pt.MasterIngressBytes)
		}
		pt.Identical = framesIdentical(base.Frames, res.Frames)
		out = append(out, pt)
	}
	return out, nil
}

func framesIdentical(a, b []*fb.Framebuffer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] == nil || b[i] == nil || !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
