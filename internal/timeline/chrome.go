package timeline

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// chromeEvent is one record of the Chrome trace-event format (the JSON
// Perfetto and chrome://tracing load). Spans are "complete" events
// (ph "X") with microsecond ts/dur; instants are ph "i"; process and
// thread names ride on ph "M" metadata events.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object form of the format.
type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

const chromeCat = "nowrender"

// usOf converts recorder nanoseconds to the format's microseconds.
// Sub-microsecond precision survives as the fractional part, and
// nsOf's rounding restores the exact nanosecond for any run shorter
// than ~52 days — the schema round trip is lossless.
func usOf(ns int64) float64 { return float64(ns) / 1e3 }

func nsOf(us float64) int64 { return int64(math.Round(us * 1e3)) }

// WriteChromeTrace writes the timeline as Chrome trace-event JSON.
// Track groups become processes (with process_name metadata), tracks
// become threads, and Meta is carried in otherData, so the file is
// both Perfetto-loadable and ReadChromeTrace-round-trippable.
func (tl *Timeline) WriteChromeTrace(w io.Writer) error {
	ct := chromeTrace{DisplayTimeUnit: "ms", OtherData: tl.Meta}
	// Deterministic pid/tid assignment: groups in sorted order, tracks
	// in timeline order.
	groups := map[string]int{}
	var groupNames []string
	for i := range tl.Tracks {
		g := tl.Tracks[i].Group()
		if _, ok := groups[g]; !ok {
			groups[g] = 0
			groupNames = append(groupNames, g)
		}
	}
	sort.Strings(groupNames)
	for i, g := range groupNames {
		groups[g] = i + 1
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: i + 1, Tid: 0,
			Args: map[string]any{"name": g},
		})
	}
	for i := range tl.Tracks {
		td := &tl.Tracks[i]
		pid := groups[td.Group()]
		tid := i + 1
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": td.Name},
		})
		for _, e := range td.Events {
			ce := chromeEvent{
				Name: e.Op.String(), Cat: chromeCat,
				Ts: usOf(e.Start), Pid: pid, Tid: tid,
				Args: map[string]any{"frame": e.Frame, "arg": e.Arg},
			}
			if e.Instant() {
				ce.Ph, ce.S = "i", "t"
			} else {
				ce.Ph = "X"
				d := usOf(e.Dur)
				ce.Dur = &d
			}
			ct.TraceEvents = append(ct.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ct)
}

// ReadChromeTrace parses Chrome trace-event JSON produced by
// WriteChromeTrace back into a Timeline: the inverse half of the schema
// round trip (and what `now trace` feeds on). It accepts both the
// object form and a bare traceEvents array.
func ReadChromeTrace(r io.Reader) (*Timeline, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var ct chromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		// A bare event array is also valid Chrome trace JSON.
		if aerr := json.Unmarshal(data, &ct.TraceEvents); aerr != nil {
			return nil, fmt.Errorf("timeline: not Chrome trace JSON: %w", err)
		}
	}
	tl := &Timeline{Meta: ct.OtherData}
	if tl.Meta == nil {
		tl.Meta = map[string]string{}
	}
	names := map[[2]int]string{} // (pid, tid) -> track name
	for _, ce := range ct.TraceEvents {
		if ce.Ph == "M" && ce.Name == "thread_name" {
			if n, ok := ce.Args["name"].(string); ok {
				names[[2]int{ce.Pid, ce.Tid}] = n
			}
		}
	}
	argInt := func(args map[string]any, key string) int64 {
		if v, ok := args[key].(float64); ok {
			return int64(v)
		}
		return 0
	}
	for _, ce := range ct.TraceEvents {
		if ce.Ph != "X" && ce.Ph != "i" && ce.Ph != "I" {
			continue
		}
		name, ok := names[[2]int{ce.Pid, ce.Tid}]
		if !ok {
			name = fmt.Sprintf("pid%d/tid%d", ce.Pid, ce.Tid)
		}
		e := Event{
			Start: nsOf(ce.Ts),
			Dur:   instantDur,
			Op:    OpFromString(ce.Name),
			Frame: int32(argInt(ce.Args, "frame")),
			Arg:   argInt(ce.Args, "arg"),
		}
		if ce.Ph == "X" {
			e.Dur = 0
			if ce.Dur != nil {
				e.Dur = nsOf(*ce.Dur)
			}
		}
		tl.AddTrack(name, []Event{e}, 0)
	}
	return tl, nil
}
