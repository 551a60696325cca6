package timeline

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// GroupStat summarises one track group (a worker, or the master) of an
// analyzed timeline.
type GroupStat struct {
	Group string
	// Busy is the union of the group's frame/tile/quarantine span
	// intervals in ns — time the group was rendering.
	Busy int64
	// Wall is the analyzed run's span (shared by all groups).
	Wall int64
	// Utilisation is Busy / Wall.
	Utilisation float64
	// Frames and Events count frame spans and all events.
	Frames int
	Events int
	// IdleGaps attributes idle time between busy spans to the op that
	// ended each gap ("what was the worker waiting to do next").
	IdleGaps map[string]int64
}

// FrameStat places one frame on the cluster timeline.
type FrameStat struct {
	Frame int32
	// Start and End bound the frame's render spans across all groups.
	Start, End int64
	// Work is the summed render span time the frame consumed.
	Work int64
	// Groups lists who rendered part of the frame.
	Groups []string
}

// Report is the `now trace` analysis of a merged timeline.
type Report struct {
	// Scheme is the partition scheme from the timeline's metadata
	// ("" when absent).
	Scheme string
	// Wall is the whole timeline's span in ns.
	Wall int64
	// Groups holds per-worker (and master) statistics, sorted by name.
	Groups []GroupStat
	// CriticalFrames are the frames whose render spans end latest —
	// the tail that sets the makespan.
	CriticalFrames []FrameStat
	// Imbalance is max/mean busy time across worker groups (1.0 =
	// perfectly balanced); 0 when fewer than one worker group.
	Imbalance float64
	// QueueWait sums the scheduler's queue-wait spans (job enqueue to
	// admission) and RenderBusy the union of render spans across all
	// groups — together they attribute a job's latency to queueing
	// versus rendering. Coalesced counts frame requests that joined
	// another job's in-flight render.
	QueueWait  int64
	RenderBusy int64
	Coalesced  int
}

// busyOp reports whether an op counts as productive render work for
// utilisation purposes.
func busyOp(o Op) bool {
	switch o {
	case OpFrame, OpQuarantine:
		return true
	}
	return false
}

type interval struct{ s, e int64 }

// union sums a set of possibly-overlapping intervals.
func union(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].s < iv[j].s })
	total := int64(0)
	cs, ce := iv[0].s, iv[0].e
	for _, x := range iv[1:] {
		if x.s > ce {
			total += ce - cs
			cs, ce = x.s, x.e
			continue
		}
		if x.e > ce {
			ce = x.e
		}
	}
	return total + (ce - cs)
}

// Analyze computes the `now trace` report: per-group utilisation from the
// union of render spans, idle-gap attribution (idle time between busy
// spans charged to the op that ended the gap), the critical-path
// frames, and the load-imbalance score across worker groups.
func Analyze(tl *Timeline) *Report {
	rep := &Report{}
	if tl.Meta != nil {
		rep.Scheme = tl.Meta["scheme"]
	}
	start, end := tl.Bounds()
	rep.Wall = end - start

	byGroup := map[string]*GroupStat{}
	frames := map[int32]*FrameStat{}
	busyIv := map[string][]interval{}
	for i := range tl.Tracks {
		td := &tl.Tracks[i]
		g := byGroup[td.Group()]
		if g == nil {
			g = &GroupStat{Group: td.Group(), Wall: rep.Wall, IdleGaps: map[string]int64{}}
			byGroup[td.Group()] = g
		}
		g.Events += len(td.Events)
		for _, e := range td.Events {
			if e.Op == OpCoalesce {
				rep.Coalesced++
			}
			if e.Instant() {
				continue
			}
			if e.Op == OpQueueWait {
				rep.QueueWait += e.Dur
			}
			if busyOp(e.Op) {
				busyIv[g.Group] = append(busyIv[g.Group], interval{e.Start, e.End()})
			}
			if e.Op == OpFrame {
				g.Frames++
				f := frames[e.Frame]
				if f == nil {
					f = &FrameStat{Frame: e.Frame, Start: e.Start, End: e.End()}
					frames[e.Frame] = f
				}
				if e.Start < f.Start {
					f.Start = e.Start
				}
				if e.End() > f.End {
					f.End = e.End()
				}
				f.Work += e.Dur
				if !contains(f.Groups, g.Group) {
					f.Groups = append(f.Groups, g.Group)
				}
			}
		}
	}

	// Idle-gap attribution: walk each group's spans in time order and
	// charge the gap before every span to that span's op.
	for name, g := range byGroup {
		var spans []Event
		for i := range tl.Tracks {
			if tl.Tracks[i].Group() != name {
				continue
			}
			for _, e := range tl.Tracks[i].Events {
				if !e.Instant() && e.Op != OpTile {
					// Tiles nest inside frames; charging gaps against
					// them would double-count intra-frame time.
					spans = append(spans, e)
				}
			}
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		cursor := start
		for _, e := range spans {
			if e.Start > cursor {
				g.IdleGaps[e.Op.String()] += e.Start - cursor
			}
			if e.End() > cursor {
				cursor = e.End()
			}
		}
		if end > cursor && g.Frames > 0 {
			g.IdleGaps["run-end"] += end - cursor
		}
	}

	var allBusy []interval
	for name, g := range byGroup {
		allBusy = append(allBusy, busyIv[name]...)
		g.Busy = union(busyIv[name])
		if rep.Wall > 0 {
			g.Utilisation = float64(g.Busy) / float64(rep.Wall)
		}
		rep.Groups = append(rep.Groups, *g)
	}
	rep.RenderBusy = union(allBusy)
	sort.Slice(rep.Groups, func(i, j int) bool { return rep.Groups[i].Group < rep.Groups[j].Group })

	// Imbalance over groups that rendered frames (the workers).
	var busies []int64
	for _, g := range rep.Groups {
		if g.Frames > 0 {
			busies = append(busies, g.Busy)
		}
	}
	if len(busies) > 0 {
		var max, sum int64
		for _, b := range busies {
			sum += b
			if b > max {
				max = b
			}
		}
		if sum > 0 {
			rep.Imbalance = float64(max) * float64(len(busies)) / float64(sum)
		}
	}

	// Critical-path frames: latest-finishing first.
	var fs []FrameStat
	for _, f := range frames {
		sort.Strings(f.Groups)
		fs = append(fs, *f)
	}
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].End != fs[j].End {
			return fs[i].End > fs[j].End
		}
		return fs[i].Frame < fs[j].Frame
	})
	if len(fs) > 8 {
		fs = fs[:8]
	}
	rep.CriticalFrames = fs
	return rep
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// Format writes the report as the `now trace` text output.
func (r *Report) Format(w io.Writer) {
	if r.Scheme != "" {
		fmt.Fprintf(w, "partition scheme: %s\n", r.Scheme)
	}
	fmt.Fprintf(w, "wall: %.1f ms, load imbalance (max/mean busy): %.2f\n", float64(r.Wall)/1e6, r.Imbalance)
	if r.QueueWait > 0 || r.Coalesced > 0 {
		fmt.Fprintf(w, "latency attribution: queue wait %.1f ms vs render %.1f ms; coalesced frames: %d\n",
			float64(r.QueueWait)/1e6, float64(r.RenderBusy)/1e6, r.Coalesced)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "per-worker utilisation:")
	for _, g := range r.Groups {
		fmt.Fprintf(w, "  %-12s busy %8.1f ms  util %5.1f%%  frames %4d  events %5d\n",
			g.Group, float64(g.Busy)/1e6, 100*g.Utilisation, g.Frames, g.Events)
	}
	fmt.Fprintln(w, "\nidle-gap attribution (time waiting before each op):")
	for _, g := range r.Groups {
		if len(g.IdleGaps) == 0 {
			continue
		}
		var ops []string
		for op := range g.IdleGaps {
			ops = append(ops, op)
		}
		sort.Slice(ops, func(i, j int) bool { return g.IdleGaps[ops[i]] > g.IdleGaps[ops[j]] })
		var parts []string
		for _, op := range ops {
			parts = append(parts, fmt.Sprintf("%s %.1fms", op, float64(g.IdleGaps[op])/1e6))
		}
		fmt.Fprintf(w, "  %-12s %s\n", g.Group, strings.Join(parts, ", "))
	}
	fmt.Fprintln(w, "\ncritical-path frames (latest finishing):")
	for _, f := range r.CriticalFrames {
		fmt.Fprintf(w, "  frame %4d  end %8.1f ms  work %8.1f ms  by %s\n",
			f.Frame, float64(f.End)/1e6, float64(f.Work)/1e6, strings.Join(f.Groups, "+"))
	}
}
