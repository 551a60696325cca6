package trace

import (
	"math"

	"nowrender/internal/fb"
	"nowrender/internal/geom"
	"nowrender/internal/grid"
	"nowrender/internal/scene"
	"nowrender/internal/stats"
	vm "nowrender/internal/vecmath"
)

// Worker holds the per-goroutine render scratch of one FrameTracer: the
// mailbox ray stamps, the ray counters and the observer hook. A Worker
// is single-owner — one goroutine renders with it — but any number of
// workers may render concurrently over the same (immutable) tracer.
// Workers come from FrameTracer.NewWorker; the tracer also embeds a
// default Worker for the classic single-goroutine API.
type Worker struct {
	ft       *FrameTracer
	observer RayObserver

	// ix, when non-nil, replaces the builtin grid intersector for every
	// query (see NewWorkerWith). The object-space cluster plugs its shard
	// router in here.
	ix Intersector

	// Mailboxing: avoid re-testing an object in multiple voxels along
	// one ray. Per worker, so concurrent rays never share stamps.
	rayStamp  uint64
	mailboxes []uint64

	// Counters tallies rays this worker casts. Single-owner scratch:
	// read it after rendering, or merge worker copies at a barrier (the
	// engine's tile pool and the farm both do the latter).
	Counters stats.RayCounters
}

// Tracer returns the shared frame view this worker renders.
func (w *Worker) Tracer() *FrameTracer { return w.ft }

// TracePixel computes the colour of pixel (px, py) in a width x height
// image. Deterministic per pixel: the same pixel produces the same
// colour regardless of which worker traces it or in what order — the
// foundation of the engine's thread-count-invariant output.
func (w *Worker) TracePixel(px, py, width, height int) vm.Vec3 {
	ft := w.ft
	if ft.aaThresh > 0 {
		return w.tracePixelAdaptive(px, py, width, height)
	}
	if ft.samples == 1 {
		return w.traceRay(ft.CameraRay(px, py, width, height, 0.5, 0.5))
	}
	// Deterministic per-pixel jitter so re-rendering a pixel in a later
	// frame (or on a different worker) reproduces the same sample
	// positions (a coherence correctness requirement).
	rng := vm.NewRNG(uint64(py)*1_000_003 + uint64(px)*7919 + 1)
	var sum vm.Vec3
	for s := 0; s < ft.samples; s++ {
		sum = sum.Add(w.traceRay(ft.CameraRay(px, py, width, height, rng.Float64(), rng.Float64())))
	}
	return sum.Scale(1 / float64(ft.samples))
}

// tracePixelAdaptive implements POV-style adaptive antialiasing: the
// pixel centre and four corners are sampled; if any pair contrasts by
// more than the threshold, extra jittered samples are blended in.
func (w *Worker) tracePixelAdaptive(px, py, width, height int) vm.Vec3 {
	ft := w.ft
	offsets := [5][2]float64{{0.5, 0.5}, {0.05, 0.05}, {0.95, 0.05}, {0.05, 0.95}, {0.95, 0.95}}
	var samples [5]vm.Vec3
	var sum vm.Vec3
	for i, o := range offsets {
		samples[i] = w.traceRay(ft.CameraRay(px, py, width, height, o[0], o[1]))
		sum = sum.Add(samples[i])
	}
	maxContrast := 0.0
	for i := 0; i < len(samples); i++ {
		for j := i + 1; j < len(samples); j++ {
			d := samples[i].Sub(samples[j])
			for _, c := range [3]float64{d.X, d.Y, d.Z} {
				if c < 0 {
					c = -c
				}
				if c > maxContrast {
					maxContrast = c
				}
			}
		}
	}
	n := len(offsets)
	if maxContrast > ft.aaThresh {
		rng := vm.NewRNG(uint64(py)*2_000_003 + uint64(px)*104729 + 7)
		for s := 0; s < ft.aaSamples; s++ {
			sum = sum.Add(w.traceRay(ft.CameraRay(px, py, width, height, rng.Float64(), rng.Float64())))
		}
		n += ft.aaSamples
	}
	return sum.Scale(1 / float64(n))
}

// RenderRegion renders rectangle region of the frame dst holds whole
// (a dst.W x dst.H frame) into dst on this worker's goroutine.
func (w *Worker) RenderRegion(dst *fb.Framebuffer, region fb.Rect) {
	w.renderRect(dst, dst.W, dst.H, region)
}

// renderRect renders rectangle region of a width x height frame into
// dst, which may hold any part of the frame that contains region.
func (w *Worker) renderRect(dst *fb.Framebuffer, width, height int, region fb.Rect) {
	for y := region.Y0; y < region.Y1; y++ {
		for x := region.X0; x < region.X1; x++ {
			dst.Set(x, y, w.TracePixel(x, y, width, height))
		}
	}
}

// RenderFull renders the whole frame into dst.
func (w *Worker) RenderFull(dst *fb.Framebuffer) {
	w.RenderRegion(dst, dst.Bounds())
}

// traceRay casts r and returns the resulting radiance.
func (w *Worker) traceRay(r vm.Ray) vm.Vec3 {
	w.Counters.Add(r.Kind, 1)
	h, obj, ok := w.Intersect(r, vm.ShadowEps, math.Inf(1))
	if w.observer != nil {
		tHit := math.Inf(1)
		if ok {
			tHit = h.T
		}
		w.observer.ObserveRay(r, tHit)
	}
	if !ok {
		return w.ft.Scene.Background
	}
	return w.shade(r, h, obj)
}

// Intersect finds the nearest object hit along r in (tMin, tMax), using
// the shared voxel grid with this worker's mailboxes plus the unbounded
// list — or the worker's replacement intersector when one was installed
// with NewWorkerWith. Candidates only report their parameter; the Hit is
// completed once, for the winner.
func (w *Worker) Intersect(r vm.Ray, tMin, tMax float64) (geom.Hit, *scene.ResolvedObject, bool) {
	if w.ix != nil {
		return w.ix.Intersect(r, tMin, tMax)
	}
	ft := w.ft
	w.rayStamp++
	stamp := w.rayStamp
	bestT, bestPart, bestID := tMax, int32(0), int32(-1)

	// Unbounded primitives are tested once per ray.
	for _, id := range ft.unbounded {
		if t, part, ok := ft.objs[id].Shape.IntersectT(r, tMin, bestT); ok {
			bestT, bestPart, bestID = t, part, id
		}
	}

	var wk grid.Walker
	if ft.grid.StartWalk(&wk, r, tMin, tMax) {
		for {
			idx, tLeave, axis := wk.Voxel()
			for _, id := range ft.grid.Items(idx) {
				if w.mailboxes[id] == stamp {
					continue
				}
				w.mailboxes[id] = stamp
				if t, part, ok := ft.objs[id].Shape.IntersectT(r, tMin, bestT); ok {
					bestT, bestPart, bestID = t, part, id
				}
			}
			// Stop once the best hit lies inside the already-walked
			// voxels: later voxels can only produce farther hits.
			if (bestID >= 0 && bestT <= tLeave) || !wk.Advance(axis) {
				break
			}
		}
	}
	if bestID < 0 {
		return geom.Hit{}, nil, false
	}
	return ft.objs[bestID].Shape.HitAt(r, bestT, bestPart), &ft.objs[bestID], true
}

// Occlusion is what lies on a shadow segment. The classes are ordered by
// strength: a segment takes the strongest class of the surfaces it meets.
type Occlusion uint8

const (
	OccClear         Occlusion = iota // nothing between the point and the light
	OccTransmissive                   // only transmissive surfaces: the ordered march tints the light
	OccBlocked                        // opaque surfaces, all of objects that move: no light arrives
	OccStaticBlocked                  // an opaque object that never moves: no light arrives, in any frame
)

// Opaque reports whether an object stops light outright.
func Opaque(ro *scene.ResolvedObject) bool { return ro.Obj.Mat.Finish.Transmit <= 0 }

// Occludes returns the class of a segment that meets ro and nothing else.
// Only an opaque object's track is read.
func Occludes(ro *scene.ResolvedObject) Occlusion {
	switch {
	case !Opaque(ro):
		return OccTransmissive
	case ro.Obj.Static():
		return OccStaticBlocked
	}
	return OccBlocked
}

// Occluded is the any-hit query for shadow rays: the strongest class of
// the candidates with a parameter in (tMin, tMax), found without a Hit.
// It returns at the first static opaque candidate, the strongest class,
// but walks on past a moving one, so the answer does not depend on the
// order the walk meets them in. The builtin grid answers it, or the
// worker's replacement intersector when one was installed with
// NewWorkerWith.
func (w *Worker) Occluded(r vm.Ray, tMin, tMax float64) Occlusion {
	if w.ix != nil {
		return w.ix.Occluded(r, tMin, tMax)
	}
	ft := w.ft
	w.rayStamp++
	stamp := w.rayStamp
	occ := OccClear
	for _, id := range ft.unbounded {
		if _, _, ok := ft.objs[id].Shape.IntersectT(r, tMin, tMax); ok {
			if occ = max(occ, Occludes(&ft.objs[id])); occ == OccStaticBlocked {
				return occ
			}
		}
	}
	var wk grid.Walker
	if !ft.grid.StartWalk(&wk, r, tMin, tMax) {
		return occ
	}
	for {
		idx, _, axis := wk.Voxel()
		for _, id := range ft.grid.Items(idx) {
			if w.mailboxes[id] == stamp {
				continue
			}
			w.mailboxes[id] = stamp
			if _, _, ok := ft.objs[id].Shape.IntersectT(r, tMin, tMax); ok {
				if occ = max(occ, Occludes(&ft.objs[id])); occ == OccStaticBlocked {
					return occ
				}
			}
		}
		if !wk.Advance(axis) {
			return occ
		}
	}
}

// shade evaluates the Whitted shading model at a hit.
func (w *Worker) shade(r vm.Ray, h geom.Hit, obj *scene.ResolvedObject) vm.Vec3 {
	ft := w.ft
	mat := obj.Obj.Mat
	fin := mat.Finish
	base := mat.Pigment.ColorAt(h)

	// Ambient term.
	out := base.Mul(ft.Scene.Ambient).Scale(fin.Ambient)

	// Direct illumination with shadow rays.
	dir := r.Dir.Norm()
	viewDir := dir.Neg()
	for _, light := range ft.Scene.Lights {
		lp := light.PosAt(ft.Frame)
		toLight := lp.Sub(h.Point)
		dist := toLight.Len()
		if dist < vm.Eps {
			continue
		}
		ldir := toLight.Scale(1 / dist)
		ndotl := h.Normal.Dot(ldir)
		if ndotl <= 0 {
			continue
		}
		// Spotlight cone and distance fade scale the light before the
		// shadow test.
		lightFactor := light.Attenuation(lp, h.Point)
		if lightFactor <= 0 {
			continue
		}
		atten := w.shadowAttenuation(h.Point.Add(h.Normal.Scale(vm.ShadowEps)), lp, r.Depth)
		if atten == (vm.Vec3{}) {
			continue
		}
		atten = atten.Scale(lightFactor)
		contrib := vm.Vec3{}
		if fin.Diffuse > 0 {
			contrib = contrib.Add(base.Scale(fin.Diffuse * ndotl))
		}
		if fin.Specular > 0 {
			half := ldir.Add(viewDir).Norm()
			spec := vm.SpecPow(math.Max(0, h.Normal.Dot(half)), fin.Shininess)
			contrib = contrib.Add(vm.Splat(fin.Specular * spec))
		}
		out = out.Add(contrib.Mul(light.Color).Mul(atten))
	}

	if r.Depth >= ft.maxDepth-1 {
		return out
	}

	// Global reflection: k_rg * I_reflected.
	if fin.Reflect > 0 {
		refl := w.traceRay(vm.Ray{
			Origin: h.Point.Add(h.Normal.Scale(vm.ShadowEps)),
			Dir:    dir.Reflect(h.Normal),
			Kind:   vm.ReflectedRay,
			Depth:  r.Depth + 1,
		})
		out = out.Add(refl.Scale(fin.Reflect))
	}

	// Transmission: k_tg * I_transmitted.
	if fin.Transmit > 0 {
		eta := 1 / fin.IOR
		if h.Inside {
			eta = fin.IOR
		}
		if td, ok := dir.Refract(h.Normal, eta); ok {
			tr := w.traceRay(vm.Ray{
				Origin: h.Point.Sub(h.Normal.Scale(vm.ShadowEps)),
				Dir:    td,
				Kind:   vm.RefractedRay,
				Depth:  r.Depth + 1,
			})
			out = out.Add(tr.Scale(fin.Transmit))
		} else {
			// Total internal reflection: the transmitted energy reflects
			// instead, as POV-Ray does.
			refl := w.traceRay(vm.Ray{
				Origin: h.Point.Add(h.Normal.Scale(vm.ShadowEps)),
				Dir:    dir.Reflect(h.Normal),
				Kind:   vm.ReflectedRay,
				Depth:  r.Depth + 1,
			})
			out = out.Add(refl.Scale(fin.Transmit))
		}
	}
	return out
}

// shadowAttenuation casts a shadow ray from p to the light at lp and
// returns the fraction of light arriving: (1,1,1) for a clear path,
// (0,0,0) for a fully blocked one, and a filtered colour through
// transmissive objects (so the glass ball casts a light shadow).
func (w *Worker) shadowAttenuation(p, lp vm.Vec3, depth int) vm.Vec3 {
	dir := lp.Sub(p)
	dist := dir.Len()
	ray := vm.Ray{Origin: p, Dir: dir.Scale(1 / dist), Kind: vm.ShadowRay, Depth: depth}
	w.Counters.Add(vm.ShadowRay, 1)

	// The any-hit query settles clear and opaquely blocked segments; only
	// one crossing nothing but transmissive surfaces needs them in order.
	atten := vm.Splat(1)
	occ := w.Occluded(ray, vm.ShadowEps, dist-vm.ShadowEps)
	switch occ {
	case OccBlocked, OccStaticBlocked:
		atten = vm.Vec3{}
	case OccTransmissive:
		atten = w.shadowMarch(ray, dist)
	}
	if w.observer != nil && occ != OccStaticBlocked {
		// Register the full segment to the light (conservative: a
		// blocker moving anywhere on the segment can change this pixel).
		// A segment a static opaque object blocks stays dark while the
		// point and the light stay put, whatever moves, and either
		// moving re-traces the pixel anyway: it is not registered.
		w.observer.ObserveRay(ray, dist)
	}
	return atten
}

// shadowMarch walks the successive nearest hits between ray's origin
// and the light at distance dist, multiplying in the transmission of
// each surface crossed: an opaque hit gives zero, and after 16 hops the
// light that is left gets through.
func (w *Worker) shadowMarch(ray vm.Ray, dist float64) vm.Vec3 {
	atten := vm.Splat(1)
	tMin := vm.ShadowEps
	for hop := 0; hop < 16; hop++ {
		h, obj, ok := w.Intersect(ray, tMin, dist-vm.ShadowEps)
		if !ok {
			break
		}
		fin := obj.Obj.Mat.Finish
		if fin.Transmit <= 0 {
			return vm.Vec3{}
		}
		tint := obj.Obj.Mat.Pigment.ColorAt(h)
		atten = atten.Mul(tint.Scale(fin.Transmit))
		if atten.MaxComponent() < 1e-4 {
			return vm.Vec3{}
		}
		tMin = h.T + vm.ShadowEps
	}
	return atten
}
