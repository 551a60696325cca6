package farm

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/msg"
	"nowrender/internal/partition"
	"nowrender/internal/timeline"
)

// TestPongRoundTrip: a pong is exactly three fields; the two-field pair
// a ping carries is not one.
func TestPongRoundTrip(t *testing.T) {
	var p pong
	if err := msg.Decode(msg.Encode(&pong{ping{5, 111}, 222}), &p); err != nil {
		t.Fatal(err)
	}
	if p != (pong{ping{5, 111}, 222}) {
		t.Errorf("stamped pong = %+v, want (5, 111, 222)", p)
	}
	if err := msg.Decode(msg.Encode(&ping{8, 333}), &pong{}); err == nil {
		t.Error("two-field pong decoded successfully")
	}
}

// TestPongData: a worker re-stamps ping payloads with its recorder
// clock, and answers a garbled ping with its own bytes.
func TestPongData(t *testing.T) {
	data := msg.Encode(&ping{3, 1_000_000})

	wt := &workerTimeline{}
	wt.ensure(1)
	var p pong
	if err := msg.Decode(pongData(data, wt.rec.Now()), &p); err != nil {
		t.Fatal(err)
	}
	if p.ping != (ping{3, 1_000_000}) {
		t.Errorf("re-stamped pong = %+v, want (3, 1000000)", p.ping)
	}
	if p.WorkerNs <= 0 {
		t.Errorf("workerNs = %d, want a live recorder stamp", p.WorkerNs)
	}

	// Malformed pings are echoed, not dropped: the master only needs
	// the bytes back to count the pong as liveness.
	junk := []byte{0xde, 0xad}
	if got := pongData(junk, wt.rec.Now()); !bytes.Equal(got, junk) {
		t.Error("malformed ping was not echoed verbatim")
	}
}

// TestRenderLocalTimeline drives a real local farm run with recording
// and heartbeats on and checks the merged cluster timeline: master
// events, shipped worker frame spans under the worker's own group, an
// offset entry per worker, and a lossless Chrome-trace round trip.
func TestRenderLocalTimeline(t *testing.T) {
	sc := farmScene(6)
	rec := timeline.New(0)
	res, err := RenderLocal(Config{
		Scene: sc, W: fw, H: fh, Coherence: true, Workers: 2,
		Scheme:    partition.Scheme{BlockW: 20, BlockH: 16, Adaptive: true},
		Heartbeat: 10 * time.Millisecond,
		Timeline:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	if tl == nil {
		t.Fatal("Result.Timeline is nil with a recorder configured")
	}

	groups := map[string]bool{}
	frameSpans := map[string]int{}
	for _, td := range tl.Tracks {
		groups[td.Group()] = true
		for _, ev := range td.Events {
			if ev.Op == timeline.OpFrame && ev.Dur >= 0 {
				frameSpans[td.Group()]++
			}
		}
	}
	if !groups["master"] {
		t.Errorf("no master group in timeline; groups = %v", groups)
	}
	workerGroups := 0
	for g := range frameSpans {
		if g != "master" {
			workerGroups++
		}
	}
	if workerGroups == 0 {
		t.Fatalf("no worker OpFrame spans shipped; groups = %v, frame spans = %v", groups, frameSpans)
	}
	offsets := 0
	for k := range tl.Meta {
		if strings.HasPrefix(k, "offset/") {
			offsets++
		}
	}
	if offsets == 0 {
		t.Errorf("no offset metadata recorded; meta = %v", tl.Meta)
	}

	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := timeline.ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Events(), tl.Events(); got != want {
		t.Errorf("Chrome round trip lost events: got %d, want %d", got, want)
	}
	if back.Meta["scheme"] != tl.Meta["scheme"] {
		t.Errorf("Chrome round trip lost meta: %q != %q", back.Meta["scheme"], tl.Meta["scheme"])
	}
}

// TestRenderVirtualTimeline: on the virtual NOW the one master loop
// records through the same calls as on the wall clock, but everything —
// the master's dispatch, steal and result instants, each machine's frame
// and send spans — is stamped on the virtual clock: inside
// [0, Makespan], with the master's last instant (the final result
// handled) exactly at the makespan and the machines' last span (its send
// completing) exactly one message's handling before it, which no
// wall-clock stamp could hit.
func TestRenderVirtualTimeline(t *testing.T) {
	sc := farmScene(12)
	machines := []cluster.Machine{
		{Name: "fast", Speed: 8, MemoryMB: 64},
		{Name: "slow", Speed: 1, MemoryMB: 64},
	}
	res, err := RenderVirtual(Config{
		Scene: sc, W: fw, H: fh, Coherence: true, Machines: machines,
		Scheme:   partition.Scheme{Sequence: true, Adaptive: true},
		Timeline: timeline.New(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	if tl == nil {
		t.Fatal("Result.Timeline is nil with a recorder configured")
	}
	if tl.Meta["clock"] != "virtual" {
		t.Errorf("clock meta = %q, want virtual", tl.Meta["clock"])
	}
	ops := map[string]map[timeline.Op]int{}
	last := map[string]int64{}
	for _, td := range tl.Tracks {
		group := td.Group()
		if group != "master" {
			group = "machines"
		}
		ops[td.Group()] = map[timeline.Op]int{}
		for _, ev := range td.Events {
			ops[td.Group()][ev.Op]++
			if ev.Start < 0 || ev.End() > int64(res.Makespan) {
				t.Errorf("%s %s event at [%d,%d] outside the virtual run [0,%d]", td.Name, ev.Op, ev.Start, ev.End(), res.Makespan)
			}
			if ev.End() > last[group] {
				last[group] = ev.End()
			}
		}
	}
	handle := time.Duration(cluster.DefaultCostModel().SecPerMessage * float64(time.Second))
	for group, want := range map[string]time.Duration{"master": res.Makespan, "machines": res.Makespan - handle} {
		if last[group] != int64(want) {
			t.Errorf("last %s event ends at %v, want %v (makespan %v)", group, time.Duration(last[group]), want, res.Makespan)
		}
	}
	if ops["master"][timeline.OpDispatch] != res.TasksExecuted {
		t.Errorf("%d dispatch instants for %d tasks", ops["master"][timeline.OpDispatch], res.TasksExecuted)
	}
	if res.Subdivisions == 0 || ops["master"][timeline.OpSteal] != res.Subdivisions {
		t.Errorf("%d steal instants for %d subdivisions", ops["master"][timeline.OpSteal], res.Subdivisions)
	}
	frames := 0
	for _, m := range machines {
		if ops[m.Name][timeline.OpFrame] == 0 || ops[m.Name][timeline.OpFrame] != ops[m.Name][timeline.OpSend] {
			t.Errorf("machine %s: %d frame spans, %d send spans", m.Name, ops[m.Name][timeline.OpFrame], ops[m.Name][timeline.OpSend])
		}
		frames += ops[m.Name][timeline.OpFrame]
	}
	if frames != sc.Frames {
		t.Errorf("%d frame spans across machines, want %d", frames, sc.Frames)
	}
}
