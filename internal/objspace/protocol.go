package objspace

import (
	"encoding/binary"
	"fmt"
	"math"

	"nowrender/internal/geom"
	"nowrender/internal/msg"
	"nowrender/internal/stats"
	vm "nowrender/internal/vecmath"
)

// Message tags for the remote ray-forwarding protocol, numbered far above
// the farm's task tags so a misrouted message fails loudly.
const (
	// TagOSRay carries a ForwardState from the client (or a previous
	// shard owner) to a shard owner.
	TagOSRay = 301
	// TagOSResult carries the settled ForwardState back to the client.
	TagOSResult = 302
)

// maxForwardDepth bounds the recursion depth accepted off the wire; the
// tracer's own maximum is far below this.
const maxForwardDepth = 64

// ForwardState is the complete state of a ray in flight between shard
// owners: enough to resume the front-to-back sweep on another machine and
// to route the final result home. It is exactly what the issue's protocol
// names: origin, direction, t-range, pixel id, depth, accumulated
// throughput — plus the running best hit, which is what makes the sweep
// resumable mid-flight.
type ForwardState struct {
	// Seq matches asynchronous results to requests on a remote link.
	Seq uint64
	// Pixel identifies the requesting pixel for attribution (-1 for
	// in-process forwards, which need no routing).
	Pixel int32
	// Shard is the destination shard index.
	Shard int32
	Ray   vm.Ray
	TMin  float64
	TMax  float64
	// Throughput is the accumulated path weight at the time the ray was
	// spawned (carried for attribution; shading happens on the owner).
	Throughput vm.Vec3
	// Found/BestObj/Best carry the nearest hit settled so far; BestObj is
	// a global object id, -1 when Found is false.
	Found   bool
	BestObj int32
	Best    geom.Hit
}

// forwardSize is the encoded size of a ForwardState: 28 eight-byte
// fields.
const forwardSize = 28 * 8

// EncodeForward serializes a ForwardState into a buffer of its own.
// Floats travel as IEEE-754 bits, so every value round-trips bit-exactly
// — the property the byte-identity invariant leans on.
func EncodeForward(fs *ForwardState) []byte {
	return AppendForward(make([]byte, 0, forwardSize), fs)
}

// AppendForward appends the encoding EncodeForward returns to dst, in
// msg.Buffer's format (big-endian 64-bit fields): with capacity in dst it
// allocates nothing, which is what lets the router forward a ray out of
// scratch it owns.
func AppendForward(dst []byte, fs *ForwardState) []byte {
	dst = appendInt(dst, int64(fs.Seq))
	dst = appendInt(dst, int64(fs.Pixel))
	dst = appendInt(dst, int64(fs.Shard))
	dst = appendInt(dst, int64(fs.Ray.Kind))
	dst = appendInt(dst, int64(fs.Ray.Depth))
	dst = appendVec(dst, fs.Ray.Origin)
	dst = appendVec(dst, fs.Ray.Dir)
	dst = appendFloat(dst, fs.TMin)
	dst = appendFloat(dst, fs.TMax)
	dst = appendVec(dst, fs.Throughput)
	dst = appendBool(dst, fs.Found)
	dst = appendInt(dst, int64(fs.BestObj))
	dst = appendFloat(dst, fs.Best.T)
	dst = appendVec(dst, fs.Best.Point)
	dst = appendVec(dst, fs.Best.Normal)
	dst = appendBool(dst, fs.Best.Inside)
	dst = appendFloat(dst, fs.Best.U)
	return appendFloat(dst, fs.Best.V)
}

func appendInt(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return appendInt(dst, 1)
	}
	return appendInt(dst, 0)
}

func appendVec(dst []byte, v vm.Vec3) []byte {
	return appendFloat(appendFloat(appendFloat(dst, v.X), v.Y), v.Z)
}

// DecodeForward parses and validates a ForwardState. It never panics on
// hostile input (fuzzed); every structural and numeric violation returns
// an error instead.
func DecodeForward(data []byte) (ForwardState, error) {
	var fs ForwardState
	b := msg.FromBytes(data)
	fs.Seq = uint64(b.UnpackInt())
	fs.Pixel = int32(b.UnpackInt())
	fs.Shard = int32(b.UnpackInt())
	kind := b.UnpackInt()
	depth := b.UnpackInt()
	fs.Ray.Origin = unpackVec(b)
	fs.Ray.Dir = unpackVec(b)
	fs.TMin = b.UnpackFloat()
	fs.TMax = b.UnpackFloat()
	fs.Throughput = unpackVec(b)
	fs.Found = b.UnpackBool()
	fs.BestObj = int32(b.UnpackInt())
	fs.Best.T = b.UnpackFloat()
	fs.Best.Point = unpackVec(b)
	fs.Best.Normal = unpackVec(b)
	fs.Best.Inside = b.UnpackBool()
	fs.Best.U = b.UnpackFloat()
	fs.Best.V = b.UnpackFloat()
	if err := b.Err(); err != nil {
		return fs, err
	}
	if b.Len() != 0 {
		return fs, fmt.Errorf("objspace: %d trailing bytes after forward state", b.Len())
	}
	if kind < 0 || kind >= int64(vm.NumRayKinds) {
		return fs, fmt.Errorf("objspace: ray kind %d out of range", kind)
	}
	fs.Ray.Kind = vm.RayKind(kind)
	if depth < 0 || depth > maxForwardDepth {
		return fs, fmt.Errorf("objspace: ray depth %d out of range", depth)
	}
	fs.Ray.Depth = int(depth)
	if fs.Pixel < -1 {
		return fs, fmt.Errorf("objspace: pixel id %d out of range", fs.Pixel)
	}
	if fs.Shard < 0 || fs.Shard >= MaxShards {
		return fs, fmt.Errorf("objspace: shard %d out of range", fs.Shard)
	}
	if !finiteVec(fs.Ray.Origin) || !finiteVec(fs.Ray.Dir) || !finiteVec(fs.Throughput) {
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
	if fs.Found {
		if fs.BestObj < 0 {
			return fs, fmt.Errorf("objspace: found hit with object id %d", fs.BestObj)
		}
		if math.IsNaN(fs.Best.T) || math.IsInf(fs.Best.T, 0) ||
			!finiteVec(fs.Best.Point) || !finiteVec(fs.Best.Normal) {
			return fs, fmt.Errorf("objspace: non-finite hit in forward state")
		}
	} else if fs.BestObj != -1 {
		return fs, fmt.Errorf("objspace: no hit but object id %d", fs.BestObj)
	}
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
