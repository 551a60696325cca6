package objspace

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"nowrender/internal/fb"
	"nowrender/internal/heappin"
	"nowrender/internal/msg"
	"nowrender/internal/scene"
	"nowrender/internal/scenes"
	"nowrender/internal/sdl"
	"nowrender/internal/stats"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

type shardRow = stats.ObjSpaceShard

func loadSDL(t *testing.T, path string) *scene.Scene {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", path))
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	sc, err := sdl.Parse(path, string(src))
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return sc
}

// testScenes returns the byte-identity workloads: the SDL golden scene,
// the museum gallery, and the large-mesh stress scene.
func testScenes(t *testing.T) map[string]*scene.Scene {
	return map[string]*scene.Scene{
		"cornell-ish": loadSDL(t, "scenes/cornell-ish.sdl"),
		"gallery":     scenes.Gallery(4),
		"meshgallery": scenes.MeshGallery(4),
	}
}

func renderReplicated(t *testing.T, sc *scene.Scene, frame, w, h int, opts trace.Options) (*fb.Framebuffer, *trace.FrameTracer) {
	t.Helper()
	ft, err := trace.New(sc, frame, opts)
	if err != nil {
		t.Fatal(err)
	}
	img := fb.New(w, h)
	ft.RenderFull(img)
	return img, ft
}

// TestShardedByteIdentity is the PR's correctness invariant: rendering
// through the object-space partition at 2 and 4 shards produces exactly
// the bytes — and exactly the ray counters — of the replicated path.
func TestShardedByteIdentity(t *testing.T) {
	const w, h = 64, 48
	for name, sc := range testScenes(t) {
		for _, shards := range []int{2, 4} {
			ref, ft := renderReplicated(t, sc, 0, w, h, trace.Options{})
			var st Stats
			cl, err := Build(sc, 0, trace.Options{}, Options{Shards: shards})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, shards, err)
			}
			wk := cl.WorkersFor(&st)(nil)
			img := fb.New(w, h)
			wk.RenderFull(img)
			if !bytes.Equal(ref.Pix, img.Pix) {
				diff := 0
				for i := range ref.Pix {
					if ref.Pix[i] != img.Pix[i] {
						diff++
					}
				}
				t.Errorf("%s at %d shards: %d/%d pixel bytes differ from replicated",
					name, shards, diff, len(ref.Pix))
			}
			if ft.Counters != wk.Counters {
				t.Errorf("%s at %d shards: counters %v != replicated %v",
					name, shards, wk.Counters, ft.Counters)
			}
			if cl.Partition().Shards() > 1 && st.RaysForwarded() == 0 {
				t.Errorf("%s at %d shards: no rays forwarded — partition degenerate?", name, shards)
			}
		}
	}
}

// TestShardedSupersampledByteIdentity repeats the invariant with
// multi-sample jitter, which exercises secondary-ray-heavy paths.
func TestShardedSupersampledByteIdentity(t *testing.T) {
	sc := scenes.MeshGallery(2)
	opts := trace.Options{SamplesPerPixel: 2}
	const w, h = 40, 30
	ref, _ := renderReplicated(t, sc, 1, w, h, opts)
	cl, err := Build(sc, 1, opts, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	img := fb.New(w, h)
	cl.NewWorker(nil).RenderFull(img)
	if !bytes.Equal(ref.Pix, img.Pix) {
		t.Error("supersampled sharded render differs from replicated")
	}
}

// TestResidentShrinks pins the memory story: the per-shard peak resident
// scene size must decrease as the shard count grows on the mesh-heavy
// stress scene.
func TestResidentShrinks(t *testing.T) {
	sc := scenes.MeshGallery(1)
	peak := func(shards int) uint64 {
		var st Stats
		cl, err := Build(sc, 0, trace.Options{}, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		cl.WorkersFor(&st)
		return st.Snapshot().PeakResidentBytes
	}
	p2, p4 := peak(2), peak(4)
	if p4 >= p2 {
		t.Errorf("peak resident did not shrink: %d bytes at 2 shards, %d at 4", p2, p4)
	}
}

func TestPartitionInvariants(t *testing.T) {
	sc := scenes.MeshGallery(1)
	cl, err := Build(sc, 0, trace.Options{}, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := cl.Partition()
	if p.Slabs[0][0] != 0 {
		t.Errorf("first slab starts at %d, want 0", p.Slabs[0][0])
	}
	for i := 1; i < len(p.Slabs); i++ {
		if p.Slabs[i][0] != p.Slabs[i-1][1] {
			t.Errorf("slab %d starts at %d, previous ends at %d", i, p.Slabs[i][0], p.Slabs[i-1][1])
		}
		if p.Slabs[i][0] >= p.Slabs[i][1] {
			t.Errorf("slab %d empty: %v", i, p.Slabs[i])
		}
		// Adjacent slabs must agree bit-exactly on their shared plane.
		lo := cl.Shard(i).Bounds.Min.Axis(p.Axis)
		hi := cl.Shard(i - 1).Bounds.Max.Axis(p.Axis)
		if lo != hi {
			t.Errorf("slab boundary %d mismatch: %v vs %v", i, lo, hi)
		}
	}
	if last := p.Slabs[len(p.Slabs)-1]; cl.Shard(len(p.Slabs)-1).Bounds.Max != p.Bounds.Max {
		t.Errorf("last slab %v does not end at the partition bounds", last)
	}
	for i := range p.Slabs {
		if s := cl.Shard(i); len(s.Objs) == 0 {
			t.Errorf("shard %d holds no geometry on the stress scene", i)
		}
	}
}

func TestBuildRejectsBadShardCounts(t *testing.T) {
	sc := scenes.MeshGallery(1)
	for _, n := range []int{-1, 0, 1, MaxShards + 1} {
		if _, err := Build(sc, 0, trace.Options{}, Options{Shards: n}); err == nil {
			t.Errorf("Build accepted %d shards", n)
		}
	}
}

// sampleForward is a nearest-hit query that has met a mesh triangle.
func sampleForward() ForwardState {
	return ForwardState{
		Ray:  vm.Ray{Origin: vm.V(0.1, -2.5, 3e8), Dir: vm.V(-0.3, 0.9, 0.1), Kind: vm.ShadowRay, Depth: 3},
		TMin: 1e-4, TMax: 17.25,
		Obj: 7, T: 4.125, Part: 1234,
	}
}

// sampleMiss is an any-hit query over an open ray that has met nothing.
func sampleMiss() ForwardState {
	fs := sampleForward()
	fs.AnyHit, fs.TMax = true, math.Inf(1)
	fs.Obj, fs.T, fs.Part = -1, math.Inf(1), 0
	return fs
}

func encodeForward(fs ForwardState) []byte { return AppendForward(nil, &fs) }

func TestForwardRoundTrip(t *testing.T) {
	cases := map[string]ForwardState{"hit": sampleForward(), "miss-inf": sampleMiss()}
	rng := vm.NewRNG(99)
	for i := 0; i < 64; i++ {
		fs := sampleForward()
		fs.AnyHit = i%2 == 0
		fs.Ray.Origin = vm.V(rng.Float64()*1e6-5e5, rng.Float64(), rng.Float64()*1e-9)
		fs.Ray.Dir = vm.V(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()+0.01)
		fs.T = fs.TMin + 1e-3 + rng.Float64()*100
		fs.TMax = fs.T + rng.Float64() + 1e-9
		fs.Part = int32(rng.Intn(1 << 20))
		cases[string(rune('a'+i))] = fs
	}
	for name, fs := range cases {
		got, err := DecodeForward(encodeForward(fs))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got != fs {
			t.Errorf("%s: round trip changed state:\n got %+v\nwant %+v", name, got, fs)
		}
	}
}

// packForward is the forward record as msg.Buffer packs it field by
// field: the format's definition.
func packForward(fs *ForwardState) []byte {
	b := msg.GetBuffer()
	defer b.Release()
	for _, v := range []vm.Vec3{fs.Ray.Origin, fs.Ray.Dir} {
		b.Float(&v.X)
		b.Float(&v.Y)
		b.Float(&v.Z)
	}
	kind, depth := int64(fs.Ray.Kind), int64(fs.Ray.Depth)
	if fs.AnyHit {
		kind += 256
	}
	b.Int64(&kind)
	b.Int64(&depth)
	b.Float(&fs.TMin)
	b.Float(&fs.TMax)
	msg.Num(b, &fs.Obj)
	b.Float(&fs.T)
	msg.Num(b, &fs.Part)
	sealed := b.Sealed()
	return sealed[:len(sealed)-4]
}

// TestAppendForwardIsTheWireFormat holds the append encoder to the bytes
// msg.Buffer packs — 104 of them — appended after a prefix and into
// scratch that is reused, for a hit, an any-hit miss over an open ray and
// a record of negative values.
func TestAppendForwardIsTheWireFormat(t *testing.T) {
	neg := sampleForward()
	neg.Ray.Origin, neg.Ray.Dir = vm.V(-1e-300, math.Copysign(0, -1), -7), vm.V(-1, -2, -3)
	neg.TMin, neg.T, neg.TMax = -5, -0.25, math.Copysign(0, -1)
	scratch := make([]byte, 0, forwardSize)
	for name, fs := range map[string]ForwardState{"hit": sampleForward(), "miss": sampleMiss(), "negatives": neg} {
		want := packForward(&fs)
		if len(want) != forwardSize || forwardSize != 104 {
			t.Fatalf("%s: msg.Buffer packs %d bytes, forwardSize is %d, want 104", name, len(want), forwardSize)
		}
		scratch = AppendForward(scratch[:0], &fs)
		if !bytes.Equal(scratch, want) {
			t.Errorf("%s: AppendForward into reused scratch differs from the packed record", name)
		}
		prefixed := AppendForward([]byte("hdr"), &fs)
		if string(prefixed[:3]) != "hdr" || !bytes.Equal(prefixed[3:], want) {
			t.Errorf("%s: AppendForward after a prefix differs from the packed record", name)
		}
		if got, err := DecodeForward(scratch); err != nil || got != fs {
			t.Errorf("%s: decode of the appended record: %+v, %v", name, got, err)
		}
	}
}

// rayLog records every ray a worker casts, with the range the tracer
// intersects it over.
type rayLog struct {
	rays       []vm.Ray
	tMin, tMax []float64
}

func (l *rayLog) ObserveRay(r vm.Ray, tHit float64) {
	tMax := math.Inf(1)
	if r.Kind == vm.ShadowRay {
		tMax = tHit - vm.ShadowEps // tHit is the light's distance
	}
	l.rays = append(l.rays, r)
	l.tMin = append(l.tMin, vm.ShadowEps)
	l.tMax = append(l.tMax, tMax)
}

// TestRouterIntersectAllocatesNothing replays one frame's rays — camera,
// shadow and secondary — through a 4-shard router, as nearest-hit
// queries and, for the shadow segments, as any-hit queries: forwarding
// included, no query may allocate.
func TestRouterIntersectAllocatesNothing(t *testing.T) {
	sc := scenes.MeshGallery(1)
	cl, err := Build(sc, 0, trace.Options{}, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var log rayLog
	cl.NewWorker(&log).RenderFull(fb.New(40, 30))
	if len(log.rays) < 2000 {
		t.Fatalf("only %d rays recorded", len(log.rays))
	}
	var st Stats
	wk := cl.WorkersFor(&st)(nil)
	for name, query := range map[string]func(i int){
		"nearest": func(i int) { wk.Intersect(log.rays[i], log.tMin[i], log.tMax[i]) },
		"any-hit": func(i int) {
			if log.rays[i].Kind == vm.ShadowRay {
				wk.Occluded(log.rays[i], log.tMin[i], log.tMax[i])
			}
		},
	} {
		before := st.RaysForwarded()
		_, allocs := heappin.PerCall(t, 3, func() {
			for i := range log.rays {
				query(i)
			}
		})
		if st.RaysForwarded() == before {
			t.Fatalf("%s: the replay forwarded no ray", name)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations per %d rays through the router, want 0", name, allocs, len(log.rays))
		}
	}
}

// TestShardedFrameAllocs pins what a steady 2-shard meshgallery frame
// costs the heap at test size: the cluster's Build — the frame owner's
// view, the resolved objects, the partition, each shard's object and view
// tables and its flat grid — and one worker rendering 40x30 through it:
// 6.6 kB in 32 allocations when pinned. Every shard's tables are exact.
func TestShardedFrameAllocs(t *testing.T) {
	const budgetBytes, budgetAllocs = 7300, 36
	sc := scenes.MeshGallery(scenes.MeshGalleryFrames)
	img := fb.New(40, 30)
	f := 0
	frame := func() {
		f++
		cl, err := Build(sc, f, trace.Options{}, Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range cl.Partition().Shards() {
			s := cl.Shard(i)
			if len(s.Objs) != cap(s.Objs) || len(s.views) != cap(s.views) {
				t.Fatalf("frame %d shard %d: objects %d of %d, views %d of %d", f, i, len(s.Objs), cap(s.Objs), len(s.views), cap(s.views))
			}
		}
		cl.WorkersFor(nil)(nil).RenderFull(img)
	}
	size, allocs := heappin.PerCall(t, 5, frame)
	t.Logf("%d B in %d allocations a frame", size, allocs)
	if size > budgetBytes || allocs > budgetAllocs {
		t.Errorf("a 2-shard frame allocates %d B in %d allocations, budget %d B in %d", size, allocs, budgetBytes, budgetAllocs)
	}
}

// TestRouterOccludedMatchesReplicated: on every shadow segment a render
// casts, and on segments between random points of the scene, the
// router's any-hit class is the replicated worker's at 2 and 4 shards —
// on meshgallery's meshes and glass, on bouncing, whose glass ball gives
// segments that cross nothing but glass, and on newton, whose swinging
// marbles block segments that static geometry does not.
func TestRouterOccludedMatchesReplicated(t *testing.T) {
	for name, sc := range map[string]*scene.Scene{
		"meshgallery": scenes.MeshGallery(scenes.MeshGalleryFrames),
		"bouncing":    scenes.Bouncing(30),
		"newton":      scenes.Newton(12),
	} {
		frame := sc.Frames / 2
		ft, err := trace.New(sc, frame, trace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var log rayLog
		ft.NewWorker(&log).RenderFull(fb.New(48, 36))
		var segs []vm.Ray
		var ends []float64
		for i, r := range log.rays {
			if r.Kind == vm.ShadowRay {
				segs, ends = append(segs, r), append(ends, log.tMax[i])
			}
		}
		b := sc.BoundsAt(frame)
		rng := vm.NewRNG(7)
		at := func() vm.Vec3 {
			return vm.V(rng.InRange(b.Min.X, b.Max.X), rng.InRange(b.Min.Y, b.Max.Y), rng.InRange(b.Min.Z, b.Max.Z))
		}
		for i := 0; i < 2000; i++ {
			p, q := at(), at()
			d := q.Sub(p)
			segs = append(segs, vm.Ray{Origin: p, Dir: d.Scale(1 / d.Len()), Kind: vm.ShadowRay})
			ends = append(ends, d.Len()-vm.ShadowEps)
		}
		replicated := ft.NewWorker(nil)
		for _, shards := range []int{2, 4} {
			cl, err := Build(sc, frame, trace.Options{}, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			rt := cl.newRouter(nil)
			var seen [4]int
			for i, r := range segs {
				want := replicated.Occluded(r, vm.ShadowEps, ends[i])
				if got := rt.Occluded(r, vm.ShadowEps, ends[i]); got != want {
					t.Fatalf("%s at %d shards: segment %+v to %g: router class %d, replicated %d",
						name, shards, r, ends[i], got, want)
				}
				seen[want]++
			}
			// Only newton's movers are opaque, and only the other two
			// scenes hold glass.
			if seen[trace.OccClear] == 0 || seen[trace.OccStaticBlocked] == 0 ||
				(name != "newton" && seen[trace.OccTransmissive] == 0) || (name == "newton" && seen[trace.OccBlocked] == 0) {
				t.Errorf("%s: segments miss a class: clear %d, glass only %d, blocked by movers %d, by a static object %d",
					name, seen[trace.OccClear], seen[trace.OccTransmissive], seen[trace.OccBlocked], seen[trace.OccStaticBlocked])
			}
		}
	}
}

// occTarget is one frame replicated and split into shards.
type occTarget struct {
	ft *trace.FrameTracer
	rt *router
}

// segment draws a shadow segment in the frame of ft the way
// trace.FuzzIntersectMatchesExhaustive draws its kinds 2 and 4: an even
// kind runs from a point in the grid's box to the light kind/2 names, an
// odd one between two points anywhere within a box size of the box. The
// u and v fractions wrap into [0, 1).
func segment(ft *trace.FrameTracer, kind uint8, u, v vm.Vec3) (vm.Ray, float64, bool) {
	unit := func(x float64) float64 { return math.Abs(x - math.Trunc(x)) }
	box := ft.Grid().Bounds()
	size := box.Size()
	in := func(p vm.Vec3, grow float64) vm.Vec3 {
		return box.Min.Sub(size.Scale(grow)).Add(vm.V(unit(p.X), unit(p.Y), unit(p.Z)).Mul(size.Scale(1 + 2*grow)))
	}
	var o, q vm.Vec3
	if kind%2 == 0 {
		lights := ft.Scene.Lights
		o, q = in(v, 0), lights[int(kind/2)%len(lights)].PosAt(ft.Frame)
	} else {
		o, q = in(u, 1), in(v, 1)
	}
	d := q.Sub(o)
	n := d.Len()
	if n < 1e-6 || math.IsInf(n, 0) {
		return vm.Ray{}, 0, false
	}
	return vm.Ray{Origin: o, Dir: d.Scale(1 / n), Kind: vm.ShadowRay}, n - vm.ShadowEps, true
}

// FuzzRouterOccludedMatchesReplicated: on any shadow segment of two
// Newton frames and a gallery frame, split into 2 and 4 shards, the
// router's any-hit class is the replicated worker's — clear, through
// gallery's glass only, blocked by movers only (Newton's swinging
// marbles, gallery's golden bouncer) or blocked by static geometry. The
// seed corpus alone reaches all four classes.
func FuzzRouterOccludedMatchesReplicated(f *testing.F) {
	newton := scenes.Newton(45)
	var targets []occTarget
	for _, at := range []struct {
		sc    *scene.Scene
		frame int
	}{{newton, 7}, {newton, 22}, {scenes.Gallery(30), 15}} {
		ft, err := trace.New(at.sc, at.frame, trace.Options{})
		if err != nil {
			f.Fatal(err)
		}
		for _, shards := range []int{2, 4} {
			cl, err := Build(at.sc, at.frame, trace.Options{}, Options{Shards: shards})
			if err != nil {
				f.Fatal(err)
			}
			targets = append(targets, occTarget{ft, cl.newRouter(nil)})
		}
	}
	var seen [4]int
	rng := vm.NewRNG(3)
	for sel := range targets {
		for kind := 0; kind < 4; kind++ {
			for i := 0; i < 32; i++ {
				u := vm.V(rng.Float64(), rng.Float64(), rng.Float64())
				v := vm.V(rng.Float64(), rng.Float64(), rng.Float64())
				f.Add(uint8(sel), uint8(kind), u.X, u.Y, u.Z, v.X, v.Y, v.Z)
				if r, tMax, ok := segment(targets[sel].ft, uint8(kind), u, v); ok {
					seen[targets[sel].ft.Occluded(r, vm.ShadowEps, tMax)]++
				}
			}
		}
	}
	for class, n := range seen {
		if n == 0 {
			f.Fatalf("no seed reaches class %d: clear %d, glass only %d, blocked by movers %d, by a static object %d",
				class, seen[trace.OccClear], seen[trace.OccTransmissive], seen[trace.OccBlocked], seen[trace.OccStaticBlocked])
		}
	}

	f.Fuzz(func(t *testing.T, sel, kind uint8, u0, u1, u2, v0, v1, v2 float64) {
		u, v := vm.V(u0, u1, u2), vm.V(v0, v1, v2)
		if !u.IsFinite() || !v.IsFinite() {
			t.Skip()
		}
		tg := targets[int(sel)%len(targets)]
		r, tMax, ok := segment(tg.ft, kind, u, v)
		if !ok {
			t.Skip()
		}
		want := tg.ft.NewWorker(nil).Occluded(r, vm.ShadowEps, tMax)
		if got := tg.rt.Occluded(r, vm.ShadowEps, tMax); got != want {
			t.Fatalf("%s frame %d, segment %+v to %g: router class %d, replicated %d",
				tg.ft.Scene.Name, tg.ft.Frame, r, tMax, got, want)
		}
	})
}

// TestMeshGalleryPins holds the object-space numbers (meshgallery,
// 120x90, 3 frames; bench/'s objspace.* metrics report the same
// quantities per run): the forwarding traffic at 2 and 4 shards
// to the ray and the byte, the peak resident share of the replicated
// scene, and frames byte-identical to the replicated render.
func TestMeshGalleryPins(t *testing.T) {
	const w, h, frames = 120, 90, 3
	sc := scenes.MeshGallery(scenes.MeshGalleryFrames) // the camera's path depends on the animation's length
	refs := make([]*fb.Framebuffer, frames)
	var replicated uint64
	for f := range refs {
		refs[f], _ = renderReplicated(t, sc, f, w, h, trace.Options{})
		r, err := ReplicatedResident(sc, f, trace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		replicated = max(replicated, r)
	}
	for _, want := range []struct {
		shards          int
		forwards, bytes uint64
		resident        float64
	}{
		// Re-pinned (was 3511 / 11229 forwards of 224 bytes) when shadow
		// segments took the any-hit query through the router: an opaquely
		// blocked segment now stops at the first opaque surface it meets,
		// a clear one still crosses every slab to its light, and a segment
		// meeting only glass crosses them once for the any-hit query before
		// it marches nearest hits — so the count moves a little, up on
		// balance. Bytes are forwards x 104: the record keeps the ray, its
		// t-range and the running best as (object, t, part). (3511 / 11229
		// had been 38716 / 122066 while the grid spanned the camera, the
		// lights and a quarter of padding.) Pixels are unchanged; they are
		// the oracle, here and in TestShardedByteIdentity.
		{2, 3525, 366600, 0.6663},
		{4, 11517, 1197768, 0.3334},
	} {
		var st Stats
		for f := range refs {
			cl, err := Build(sc, f, trace.Options{}, Options{Shards: want.shards})
			if err != nil {
				t.Fatal(err)
			}
			img := fb.New(w, h)
			cl.WorkersFor(&st)(nil).RenderFull(img)
			if !bytes.Equal(img.Pix, refs[f].Pix) {
				t.Errorf("%d shards: frame %d differs from the replicated render", want.shards, f)
			}
		}
		snap := st.Snapshot()
		if snap.RaysForwarded != want.forwards || snap.ForwardBytes != want.bytes {
			t.Errorf("%d shards: %d forwards / %d bytes, want %d / %d",
				want.shards, snap.RaysForwarded, snap.ForwardBytes, want.forwards, want.bytes)
		}
		if snap.ForwardBytes != snap.RaysForwarded*forwardSize {
			t.Errorf("%d shards: %d bytes for %d forwards is not %d a ray",
				want.shards, snap.ForwardBytes, snap.RaysForwarded, forwardSize)
		}
		got := float64(snap.PeakResidentBytes) / float64(replicated)
		if math.Abs(got-want.resident) >= 0.00005 {
			t.Errorf("%d shards: resident_vs_replicated %.5f, want %.4f", want.shards, got, want.resident)
		}
	}
}

func TestDecodeForwardRejects(t *testing.T) {
	mutate := func(f func(*ForwardState)) []byte {
		fs := sampleForward()
		f(&fs)
		return encodeForward(fs)
	}
	word := func(i int, v uint64) []byte { // the record with field i replaced
		data := encodeForward(sampleForward())
		binary.BigEndian.PutUint64(data[8*i:], v)
		return data
	}
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      encodeForward(sampleForward())[:40],
		"trailing":       append(encodeForward(sampleMiss()), 0),
		"bad-kind":       mutate(func(fs *ForwardState) { fs.Ray.Kind = 200 }),
		"high-kind-bits": word(6, 1<<40|uint64(vm.ShadowRay)),
		"any-hit-camera": mutate(func(fs *ForwardState) { fs.AnyHit, fs.Ray.Kind = true, vm.CameraRay }),
		"neg-depth":      mutate(func(fs *ForwardState) { fs.Ray.Depth = -1 }),
		"huge-depth":     mutate(func(fs *ForwardState) { fs.Ray.Depth = maxForwardDepth + 1 }),
		"nan-origin":     mutate(func(fs *ForwardState) { fs.Ray.Origin.X = math.NaN() }),
		"inf-dir":        mutate(func(fs *ForwardState) { fs.Ray.Dir.Y = math.Inf(1) }),
		"zero-dir":       mutate(func(fs *ForwardState) { fs.Ray.Dir = vm.Vec3{} }),
		"nan-tmin":       mutate(func(fs *ForwardState) { fs.TMin = math.NaN() }),
		"inf-tmin":       mutate(func(fs *ForwardState) { fs.TMin = math.Inf(1) }),
		"inverted-t":     mutate(func(fs *ForwardState) { fs.TMax = fs.TMin - 1 }),
		"nan-best":       mutate(func(fs *ForwardState) { fs.T = math.NaN() }),
		"best-past-tmax": mutate(func(fs *ForwardState) { fs.T = fs.TMax }),
		"best-at-tmin":   mutate(func(fs *ForwardState) { fs.T = fs.TMin }),
		"neg-obj":        mutate(func(fs *ForwardState) { fs.Obj = -2 }),
		"neg-part":       mutate(func(fs *ForwardState) { fs.Part = -1 }),
		"huge-obj":       word(10, 1<<40),
		"ghost-t":        mutate(func(fs *ForwardState) { fs.Obj = -1 }),
		"ghost-part":     mutate(func(fs *ForwardState) { fs.Obj, fs.T = -1, fs.TMax }),
	}
	for name, data := range cases {
		if _, err := DecodeForward(data); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

// TestStatsCodecRoundTrip: the stats a sharded cluster counts survive the
// TagOSStats message unchanged, and a malformed report is refused.
func TestStatsCodecRoundTrip(t *testing.T) {
	var st Stats
	sc := scenes.MeshGallery(1)
	cl, err := Build(sc, 0, trace.Options{}, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	cl.WorkersFor(&st)
	st.countForward(0, forwardSize)
	st.countForward(0, forwardSize)
	st.countForward(2, forwardSize)
	snap := StatsMsg(st.Snapshot())
	var got StatsMsg
	if err := msg.Decode(msg.Encode(&snap), &got); err != nil {
		t.Fatal(err)
	}
	if got.Shards != snap.Shards || got.RaysForwarded != snap.RaysForwarded ||
		got.ForwardBytes != snap.ForwardBytes || got.PeakResidentBytes != snap.PeakResidentBytes ||
		len(got.PerShard) != len(snap.PerShard) {
		t.Errorf("stats round trip: got %+v want %+v", got, snap)
	}
	for i := range got.PerShard {
		if got.PerShard[i] != snap.PerShard[i] {
			t.Errorf("shard %d row: got %+v want %+v", i, got.PerShard[i], snap.PerShard[i])
		}
	}

	body := msg.Encode(&snap)
	body = body[:len(body)-4]
	for name, data := range map[string][]byte{
		"empty":     {},
		"too-many":  msg.Seal([]byte{0, 0, 0, 0, 0, 0, 0, 200, 0, 0, 0, 0, 0, 0, 0, 200}),
		"truncated": msg.Seal(append([]byte(nil), body[:20]...)),
		"trailing":  msg.Seal(append(append([]byte(nil), body...), 1)),
	} {
		if err := msg.Decode(data, &StatsMsg{}); err == nil {
			t.Errorf("%s: stats decode accepted malformed input", name)
		}
	}
}

// FuzzObjSpaceDecode drives the forward decoder with arbitrary bytes: it
// must never panic, and anything it accepts must re-encode to the same
// bytes and decode to the identical state. (The stats report is a sealed
// message; FuzzProtocolDecode in internal/farm covers it.)
func FuzzObjSpaceDecode(f *testing.F) {
	f.Add(encodeForward(sampleForward()))
	miss := sampleForward()
	miss.Obj, miss.T, miss.Part = -1, miss.TMax, 0
	f.Add(encodeForward(miss))
	f.Add(msg.Encode(stats3())) // a stats report sent to the wrong decoder
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// The 104-byte record: an any-hit miss over an open ray, a hit on a
	// mesh triangle far into the index space, and a valid record with
	// trailing bytes.
	f.Add(encodeForward(sampleMiss()))
	tri := sampleForward()
	tri.Part = 1<<31 - 1
	f.Add(encodeForward(tri))
	f.Add(append(encodeForward(sampleForward()), 0, 0, 0, 0, 0, 0, 0, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if fs, err := DecodeForward(data); err == nil {
			enc := encodeForward(fs)
			if !bytes.Equal(enc, data) {
				t.Fatalf("accepted %x, re-encodes to %x", data, enc)
			}
			again, err := DecodeForward(enc)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if again != fs {
				t.Fatalf("re-encode changed state: %+v vs %+v", again, fs)
			}
		}
	})
}

func stats3() *StatsMsg {
	var s StatsMsg
	s.Shards = 3
	s.PerShard = append(s.PerShard,
		shardRow{RaysForwarded: 10, ForwardBytes: 1040, Objects: 4, Tris: 100, ResidentBytes: 5000},
		shardRow{RaysForwarded: 3, ForwardBytes: 312, Objects: 2, Tris: 50, ResidentBytes: 2500},
		shardRow{})
	s.RaysForwarded, s.ForwardBytes, s.PeakResidentBytes = 13, 1352, 5000
	return &s
}
