package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one traced call the benchmark made into a layer. Spans of one
// repetition share Rep; Parent is the id of the span that was open when
// this one began (0 for a root).
type span struct {
	ID, Parent, Rep int
	Name            string
	Start, End      time.Duration // since the tracer's epoch
}

// tracer records the benchmark's own spans in memory. A nil *tracer is
// valid and records nothing, so untraced repetitions run the same code
// with one nil check per site. Spans nest by call order (begin/end act
// as a stack), which is exact because the benchmark drives every layer
// from one goroutine; the mutex only guards against callbacks the farm
// master loop makes while that goroutine is inside RunMaster.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	rep   int
	spans []span
	open  []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setRep tags subsequent spans with a repetition id.
func (t *tracer) setRep(rep int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep = rep
	t.mu.Unlock()
}

// begin opens a span and returns the function that closes it:
//
//	defer tr.begin("trace.New")()
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: idx + 1, Parent: parent, Rep: t.rep, Name: name, Start: time.Since(t.epoch)})
	t.open = append(t.open, idx)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[idx].End = time.Since(t.epoch)
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i] == idx {
				t.open = append(t.open[:i], t.open[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
	}
}

// selfTime is one span name's total and self time: self = the span's
// duration minus the part its child spans cover.
type selfTime struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// selfTimes aggregates the recorded spans by name, largest self time
// first.
func (t *tracer) selfTimes() []selfTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*selfTime{}
	for _, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - children[s.ID]
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, one thread per repetition), loadable in Perfetto and by
// cmd/nowtrace.
func (t *tracer) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "bench/" + workload}}}
	seen := map[int]bool{}
	for _, s := range t.spans {
		tid := s.Rep + 1
		if !seen[tid] {
			seen[tid] = true
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": "bench/rep" + strconv.Itoa(s.Rep)}})
		}
		d := us(s.End - s.Start)
		events = append(events, event{Name: s.Name, Cat: "bench", Ph: "X", Ts: us(s.Start), Dur: &d, Pid: 1, Tid: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "rep": s.Rep}})
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]string{"workload": workload, "source": "bench spans"},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
