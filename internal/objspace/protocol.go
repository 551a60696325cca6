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
	// at the first static opaque surface, and the running best is the
	// nearest opaque surface met so far or, while none has been, the
	// nearest transmissive one, rather than the nearest hit.
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
	if len(data) != forwardSize {
		return fs, fmt.Errorf("objspace: forward state is %d bytes, want %d", len(data), forwardSize)
	}
	word := func(i int) uint64 { return binary.BigEndian.Uint64(data[8*i:]) }
	float := func(i int) float64 { return math.Float64frombits(word(i)) }
	fs.Ray.Origin = vm.V(float(0), float(1), float(2))
	fs.Ray.Dir = vm.V(float(3), float(4), float(5))
	kind, depth := int64(word(6)), int64(word(7))
	fs.TMin, fs.TMax = float(8), float(9)
	obj := int64(word(10))
	fs.T = float(11)
	part := int64(word(12))
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

func finiteVec(v vm.Vec3) bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// StatsMsg is the TagOSStats payload the farm ships once per task: a
// stats.ObjSpaceStats as its shard count and per-shard rows. The totals
// are not on the wire; Validate recomputes them from the rows rather
// than trust the sender.
type StatsMsg stats.ObjSpaceStats

// statsRowBytes is the wire size of one per-shard row.
const statsRowBytes = 5 * 8

func (s *StatsMsg) Fields(b *msg.Buffer) {
	b.Int(&s.Shards)
	msg.List(b, &s.PerShard, MaxShards, statsRowBytes)
	for i := range s.PerShard {
		sh := &s.PerShard[i]
		b.Uint64(&sh.RaysForwarded)
		b.Uint64(&sh.ForwardBytes)
		b.Int(&sh.Objects)
		b.Int(&sh.Tris)
		b.Uint64(&sh.ResidentBytes)
	}
}

// Validate rejects a shard count out of range or a row with negative
// counts, and sets the totals from the rows.
func (s *StatsMsg) Validate() error {
	if s.Shards < 0 || s.Shards > MaxShards {
		return fmt.Errorf("shard count %d out of range", s.Shards)
	}
	s.RaysForwarded, s.ForwardBytes, s.PeakResidentBytes = 0, 0, 0
	for i, sh := range s.PerShard {
		if sh.Objects < 0 || sh.Tris < 0 {
			return fmt.Errorf("negative counts in shard %d", i)
		}
		s.RaysForwarded += sh.RaysForwarded
		s.ForwardBytes += sh.ForwardBytes
		s.PeakResidentBytes = max(s.PeakResidentBytes, sh.ResidentBytes)
	}
	return nil
}
