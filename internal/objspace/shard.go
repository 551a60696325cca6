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
// shard, where its material lives), its resident triangle count (0 for
// non-mesh shapes) and the shape the shard tests — the object's own, or
// for a large mesh a view clipped to the slab.
type ShardObject struct {
	Global int32
	Tris   int32
	Shape  geom.Shape
}

// Shard owns one slab of the partition: the geometry overlapping it and
// a sub-grid over the slab for DDA traversal. Read-only after build.
type Shard struct {
	Index  int
	Bounds vm.AABB
	Grid   *grid.Grid
	Objs   []ShardObject
	// views holds the shard's mesh views by value; the ShardObjects of
	// clipped meshes point into it.
	views []geom.MeshView
	// Tris and ResidentBytes account the shard's resident scene size.
	Tris          int
	ResidentBytes uint64
}

// clipped reports whether ro is a mesh large enough to be clipped to a
// slab rather than held whole.
func clipped(ro *scene.ResolvedObject) (*geom.Mesh, bool) {
	m, ok := ro.Shape.(*geom.Mesh)
	return m, ok && len(m.Tris) >= meshClipMin
}

// buildShard collects the geometry overlapping slab i and builds its
// sub-grid. Voxel counts match the slab's share of the full grid along
// the partition axis and the full counts elsewhere, so traversal density
// matches the replicated grid. A clipped mesh is a view (geom.Mesh.Clip):
// it shares the scene mesh's triangles, boxes and hierarchy, read-only,
// with every other shard and every worker thread, and is charged in
// ResidentBytes only for the triangles it keeps — what an owner on
// another machine would have to hold. A counting pass sizes the object
// and view tables, so a shard holds one of each at its exact size (less
// a slot for each large mesh whose box meets the slab but none of whose
// triangles do).
func buildShard(p *Partition, i int, objs []scene.ResolvedObject) (*Shard, error) {
	sb := p.SlabBounds(i)
	s := &Shard{Index: i, Bounds: sb}
	resident := func(ro *scene.ResolvedObject) bool {
		// Unbounded objects are replicated on the frame owner instead.
		return !trace.Unbounded(*ro) && ro.Bounds.Overlaps(sb)
	}
	n, views := 0, 0
	for gi := range objs {
		if ro := &objs[gi]; resident(ro) {
			n++
			if _, ok := clipped(ro); ok {
				views++
			}
		}
	}
	s.Objs = make([]ShardObject, 0, n)
	s.views = make([]geom.MeshView, 0, views)
	for gi := range objs {
		ro := &objs[gi]
		if !resident(ro) {
			continue
		}
		so := ShardObject{Global: int32(gi), Shape: ro.Shape}
		if m, ok := clipped(ro); ok {
			v := m.Clip(sb)
			if v.NumTris() == 0 {
				continue
			}
			s.views = append(s.views, v)
			so.Shape, so.Tris = &s.views[len(s.views)-1], int32(v.NumTris())
		} else if m, ok := ro.Shape.(*geom.Mesh); ok {
			so.Tris = int32(m.NumTris())
		}
		s.Objs = append(s.Objs, so)
		s.Tris += int(so.Tris)
	}

	// The sub-grid covers only the slab; resolution keeps the full
	// grid's voxel density.
	counts := p.dims
	counts[p.Axis] = p.Slabs[i][1] - p.Slabs[i][0]
	g, err := grid.New(sb, counts[0], counts[1], counts[2])
	if err != nil {
		return nil, fmt.Errorf("objspace: shard %d grid: %w", i, err)
	}
	g.Fill(len(s.Objs), func(li int) (vm.AABB, bool) {
		so := &s.Objs[li]
		if v, ok := so.Shape.(*geom.MeshView); ok {
			return v.Bounds(), true
		}
		return objs[so.Global].Bounds, true
	})
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
