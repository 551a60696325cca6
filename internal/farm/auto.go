package farm

import (
	"nowrender/internal/anim"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
)

// RenderAuto renders an animation whose camera may cut between
// stationary positions: the animation is split into camera-stationary
// sequences (§3: "any camera movement logically separates one sequence
// from another"), each sequence runs through the virtual farm with the
// configured scheme and coherence, and the results are concatenated.
// The virtual makespan is the sum of sequence makespans — the master
// processes sequences in order, as the paper's two-run Newton animation
// was processed.
func RenderAuto(cfg Config) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	seqs := anim.SplitSequences(cfg.Scene)
	if err := anim.Validate(seqs, cfg.Scene.Frames); err != nil {
		return nil, err
	}

	combined := &Result{}
	workerStats := make(map[string]*stats.WorkerStats)
	emit := cfg.Emit
	cfg.Emit = nil
	for _, sq := range seqs {
		c := cfg
		c.StartFrame, c.EndFrame = sq.Start, sq.End
		if cfg.Timeline != nil {
			// A fresh recorder per sequence: snapshots of a shared one
			// would subsume each other and double-count on merge.
			c.Timeline = timeline.New(0)
		}
		res, err := RenderVirtual(c)
		if err != nil {
			return nil, err
		}
		combined.mergeTimeline(res.Timeline)
		combined.Frames = append(combined.Frames, res.Frames...)
		combined.Makespan += res.Makespan
		combined.TasksExecuted += res.TasksExecuted
		combined.Subdivisions += res.Subdivisions
		combined.BytesTransferred += res.BytesTransferred
		combined.Faults.Merge(res.Faults)
		combined.ObjSpace.Merge(res.ObjSpace)
		for _, fs := range res.Run.Frames {
			combined.Run.AddFrame(fs)
		}
		for _, ws := range res.Workers {
			agg, ok := workerStats[ws.Worker]
			if !ok {
				agg = &stats.WorkerStats{Worker: ws.Worker}
				workerStats[ws.Worker] = agg
			}
			agg.TasksDone += ws.TasksDone
			agg.PixelsDone += ws.PixelsDone
			agg.Busy += ws.Busy
			agg.Rays.Merge(ws.Rays)
		}
	}
	combined.Run.Total = combined.Makespan
	for _, name := range stats.SortedKeys(workerStats) {
		combined.Workers = append(combined.Workers, *workerStats[name])
	}
	if emit != nil {
		for f, img := range combined.Frames {
			if err := emit(f, img); err != nil {
				return nil, err
			}
		}
	}
	return combined, nil
}
