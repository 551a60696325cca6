package objspace

import (
	"encoding/binary"
	"fmt"
	"math"

	"nowrender/internal/msg"
	"nowrender/internal/stats"
	vm "nowrender/internal/vecmath"
)

// maxForwardDepth bounds the recursion depth accepted off the wire; the
// tracer's own maximum is far below this.
const maxForwardDepth = 64

// ForwardState is what a ray carries from one shard owner to the next:
// the ray, its t-range and the running best — everything the next owner
// reads to resume the front-to-back sweep, and nothing it does not. The
// point, normal and side of a hit are not in it: the frame owner completes
// the one winning hit (Shape.HitAt) when the sweep ends.
type ForwardState struct {
	Ray vm.Ray
	// AnyHit marks the any-hit query of a shadow segment: the sweep stops
	// at the first opaque surface, and the running best is the nearest
	// transmissive surface met so far rather than the nearest hit.
	AnyHit     bool
	TMin, TMax float64
	// Obj, T and Part are the running best: a global object id, the ray
	// parameter at which it was met and the part IntersectT reported. Obj
	// is -1, with T = TMax and Part 0, while nothing has been met.
	Obj  int32
	T    float64
	Part int32
}

// forwardSize is the encoded size of a ForwardState: 13 eight-byte
// fields — origin and direction, kind and depth, the t-range, and the
// running best's object, parameter and part.
const forwardSize = 13 * 8

// anyHitBit marks an any-hit query in the ray-kind field, above every
// RayKind value.
const anyHitBit = 1 << 8

// AppendForward appends fs's encoding to dst in msg.Buffer's format
// (big-endian 64-bit fields) and returns the extended slice. Floats travel
// as IEEE-754 bits, so every value round-trips bit-exactly — the property
// the byte-identity invariant leans on — and with capacity in dst nothing
// is allocated, which is what lets the router forward a ray out of
// scratch it owns.
func AppendForward(dst []byte, fs *ForwardState) []byte {
	kind := int64(fs.Ray.Kind)
	if fs.AnyHit {
		kind |= anyHitBit
	}
	dst = appendVec(dst, fs.Ray.Origin)
	dst = appendVec(dst, fs.Ray.Dir)
	dst = appendInt(dst, kind)
	dst = appendInt(dst, int64(fs.Ray.Depth))
	dst = appendFloat(dst, fs.TMin)
	dst = appendFloat(dst, fs.TMax)
	dst = appendInt(dst, int64(fs.Obj))
	dst = appendFloat(dst, fs.T)
	return appendInt(dst, int64(fs.Part))
}

func appendInt(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendVec(dst []byte, v vm.Vec3) []byte {
	return appendFloat(appendFloat(appendFloat(dst, v.X), v.Y), v.Z)
}

// DecodeForward parses and validates a ForwardState. It never panics on
// hostile input (fuzzed); every structural and numeric violation returns
// an error instead, and whatever it accepts re-encodes to the same bytes.
func DecodeForward(data []byte) (ForwardState, error) {
	var fs ForwardState
	b := msg.FromBytes(data)
	fs.Ray.Origin = unpackVec(b)
	fs.Ray.Dir = unpackVec(b)
	kind := b.UnpackInt()
	depth := b.UnpackInt()
	fs.TMin = b.UnpackFloat()
	fs.TMax = b.UnpackFloat()
	obj := b.UnpackInt()
	fs.T = b.UnpackFloat()
	part := b.UnpackInt()
	if err := b.Err(); err != nil {
		return fs, err
	}
	if b.Len() != 0 {
		return fs, fmt.Errorf("objspace: %d trailing bytes after forward state", b.Len())
	}
	fs.AnyHit = kind&anyHitBit != 0
	kind &^= anyHitBit
	if kind < 0 || kind >= int64(vm.NumRayKinds) {
		return fs, fmt.Errorf("objspace: ray kind %d out of range", kind)
	}
	fs.Ray.Kind = vm.RayKind(kind)
	if fs.AnyHit && fs.Ray.Kind != vm.ShadowRay {
		return fs, fmt.Errorf("objspace: any-hit query on a %v ray", fs.Ray.Kind)
	}
	if depth < 0 || depth > maxForwardDepth {
		return fs, fmt.Errorf("objspace: ray depth %d out of range", depth)
	}
	fs.Ray.Depth = int(depth)
	if !finiteVec(fs.Ray.Origin) || !finiteVec(fs.Ray.Dir) {
		return fs, fmt.Errorf("objspace: non-finite vector in forward state")
	}
	if fs.Ray.Dir == (vm.Vec3{}) {
		return fs, fmt.Errorf("objspace: zero ray direction")
	}
	// t-range: TMin must be finite, TMax may be +Inf (open ray); NaN and
	// inverted ranges are rejected.
	if math.IsNaN(fs.TMin) || math.IsInf(fs.TMin, 0) {
		return fs, fmt.Errorf("objspace: non-finite tMin")
	}
	if math.IsNaN(fs.TMax) || math.IsInf(fs.TMax, -1) || fs.TMax < fs.TMin {
		return fs, fmt.Errorf("objspace: bad t-range [%g,%g]", fs.TMin, fs.TMax)
	}
	switch {
	case obj == -1:
		if fs.T != fs.TMax || part != 0 {
			return fs, fmt.Errorf("objspace: no best but t %g, part %d", fs.T, part)
		}
	case obj < 0 || obj > math.MaxInt32 || part < 0 || part > math.MaxInt32:
		return fs, fmt.Errorf("objspace: best object %d, part %d out of range", obj, part)
	case !(fs.T > fs.TMin && fs.T < fs.TMax):
		return fs, fmt.Errorf("objspace: best t %g outside (%g,%g)", fs.T, fs.TMin, fs.TMax)
	}
	fs.Obj, fs.Part = int32(obj), int32(part)
	return fs, nil
}

func unpackVec(b *msg.Buffer) vm.Vec3 {
	return vm.Vec3{X: b.UnpackFloat(), Y: b.UnpackFloat(), Z: b.UnpackFloat()}
}

func finiteVec(v vm.Vec3) bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// EncodeStats serializes an ObjSpaceStats report (the farm ships one per
// task just before TagTaskDone).
func EncodeStats(s stats.ObjSpaceStats) []byte {
	b := msg.NewBuffer()
	b.PackInt(int64(s.Shards))
	b.PackInt(int64(len(s.PerShard)))
	for _, sh := range s.PerShard {
		b.PackInt(int64(sh.RaysForwarded))
		b.PackInt(int64(sh.ForwardBytes))
		b.PackInt(int64(sh.Objects))
		b.PackInt(int64(sh.Tris))
		b.PackInt(int64(sh.ResidentBytes))
	}
	return b.Bytes()
}

// DecodeStats parses an ObjSpaceStats report, rejecting malformed input.
// Totals are recomputed from the per-shard rows rather than trusted.
func DecodeStats(data []byte) (stats.ObjSpaceStats, error) {
	var out stats.ObjSpaceStats
	b := msg.FromBytes(data)
	shards := b.UnpackInt()
	n := b.UnpackInt()
	if b.Err() != nil {
		return out, b.Err()
	}
	if shards < 0 || shards > MaxShards || n < 0 || n > MaxShards {
		return out, fmt.Errorf("objspace: stats shard count %d/%d out of range", shards, n)
	}
	out.Shards = int(shards)
	for i := int64(0); i < n; i++ {
		sh := stats.ObjSpaceShard{
			RaysForwarded: uint64(b.UnpackInt()),
			ForwardBytes:  uint64(b.UnpackInt()),
			Objects:       int(b.UnpackInt()),
			Tris:          int(b.UnpackInt()),
			ResidentBytes: uint64(b.UnpackInt()),
		}
		if sh.Objects < 0 || sh.Tris < 0 {
			return out, fmt.Errorf("objspace: negative counts in stats shard %d", i)
		}
		out.PerShard = append(out.PerShard, sh)
		out.RaysForwarded += sh.RaysForwarded
		out.ForwardBytes += sh.ForwardBytes
		if sh.ResidentBytes > out.PeakResidentBytes {
			out.PeakResidentBytes = sh.ResidentBytes
		}
	}
	if err := b.Err(); err != nil {
		return out, err
	}
	if b.Len() != 0 {
		return out, fmt.Errorf("objspace: %d trailing bytes after stats", b.Len())
	}
	return out, nil
}
