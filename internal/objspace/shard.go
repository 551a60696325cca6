package objspace

import (
	"fmt"

	"nowrender/internal/geom"
	"nowrender/internal/grid"
	"nowrender/internal/scene"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

// meshClipMin is the triangle count from which a mesh is clipped to the
// slab instead of being referenced whole. Small meshes are cheaper to
// replicate than to clip.
const meshClipMin = 16

// Rough per-item resident-size estimates for the accounting the
// object-space metrics report. A Triangle is three Vec3 points plus three
// normal pointers, and each resident triangle is also charged its share
// of the mesh's hierarchy (its own box, its index, and half a 64-byte
// node for leaves of four); non-mesh primitives are a shape struct plus a
// resolved-object header; grid cells cost a slice header per voxel plus
// an int32 per entry.
const (
	triBytes   = 3*24 + 3*8 + 16 + (48 + 4 + 64/2)
	objBytes   = 160
	voxelBytes = 24
	itemBytes  = 4
)

// ShardObject is one object resident on a shard: the global object id
// (an index into the frame's resolved-object table, identical on every
// shard) and the shard-local geometry — the full shape, or for large
// meshes a view clipped to the slab.
type ShardObject struct {
	Global int32
	RO     scene.ResolvedObject
	// Tris is the resident triangle count (0 for non-mesh shapes).
	Tris int
}

// Shard owns one slab of the partition: the geometry overlapping it and
// a sub-grid over the slab for DDA traversal. Read-only after build.
type Shard struct {
	Index  int
	Bounds vm.AABB
	Grid   *grid.Grid
	Objs   []ShardObject
	// Tris and ResidentBytes account the shard's resident scene size.
	Tris          int
	ResidentBytes uint64
}

// buildShard collects the geometry overlapping slab i and builds its
// sub-grid. Voxel counts match the slab's share of the full grid along
// the partition axis and the full counts elsewhere, so traversal density
// matches the replicated grid. A clipped mesh is a view (geom.Mesh.Clip):
// it shares the scene mesh's triangles, boxes and hierarchy, read-only,
// with every other shard and every worker thread, and is charged in
// ResidentBytes only for the triangles it keeps — what an owner on
// another machine would have to hold.
func buildShard(p *Partition, i int, objs []scene.ResolvedObject) (*Shard, error) {
	sb := p.SlabBounds(i)
	s := &Shard{Index: i, Bounds: sb}
	for gi := range objs {
		ro := &objs[gi]
		if trace.Unbounded(*ro) {
			continue // unbounded: replicated on the frame owner
		}
		if !ro.Bounds.Overlaps(sb) {
			continue
		}
		so := ShardObject{Global: int32(gi), RO: *ro}
		if m, ok := ro.Shape.(*geom.Mesh); ok {
			if len(m.Tris) >= meshClipMin {
				m = m.Clip(sb)
				if m.NumTris() == 0 {
					continue
				}
				so.RO.Shape = m
				so.RO.Bounds = m.Bounds()
			}
			so.Tris = m.NumTris()
		}
		s.Objs = append(s.Objs, so)
		s.Tris += so.Tris
	}

	// The sub-grid covers only the slab; resolution keeps the full
	// grid's voxel density.
	counts := p.dims
	counts[p.Axis] = p.Slabs[i][1] - p.Slabs[i][0]
	g, err := grid.New(sb, counts[0], counts[1], counts[2])
	if err != nil {
		return nil, fmt.Errorf("objspace: shard %d grid: %w", i, err)
	}
	for li, so := range s.Objs {
		g.Insert(int32(li), so.RO.Bounds)
	}
	s.Grid = g

	// Resident accounting: geometry plus grid structures.
	s.ResidentBytes = uint64(g.NumVoxels()) * voxelBytes
	for idx := 0; idx < g.NumVoxels(); idx++ {
		s.ResidentBytes += uint64(len(g.Items(idx))) * itemBytes
	}
	for _, so := range s.Objs {
		if so.Tris > 0 {
			s.ResidentBytes += uint64(so.Tris) * triBytes
		} else {
			s.ResidentBytes += objBytes
		}
	}
	return s, nil
}
