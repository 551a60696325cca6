package vecmath

import (
	"fmt"
	"math"
)

// Mat4 is a 4x4 matrix in row-major order representing an affine
// transform. Only the top three rows are meaningful for the transforms the
// renderer uses (rotation, scale, translation); the bottom row is kept so
// the type remains a general 4x4 for tests.
type Mat4 struct {
	M [4][4]float64
}

// Identity returns the identity transform.
func Identity() Mat4 {
	var m Mat4
	for i := 0; i < 4; i++ {
		m.M[i][i] = 1
	}
	return m
}

// Translate returns a translation by (x,y,z).
func Translate(x, y, z float64) Mat4 {
	m := Identity()
	m.M[0][3] = x
	m.M[1][3] = y
	m.M[2][3] = z
	return m
}

// TranslateV returns a translation by vector v.
func TranslateV(v Vec3) Mat4 { return Translate(v.X, v.Y, v.Z) }

// Scaling returns a non-uniform scale by (x,y,z).
func Scaling(x, y, z float64) Mat4 {
	m := Identity()
	m.M[0][0] = x
	m.M[1][1] = y
	m.M[2][2] = z
	return m
}

// RotateX returns a rotation about the X axis by angle radians.
func RotateX(angle float64) Mat4 {
	s, c := math.Sin(angle), math.Cos(angle)
	m := Identity()
	m.M[1][1], m.M[1][2] = c, -s
	m.M[2][1], m.M[2][2] = s, c
	return m
}

// RotateY returns a rotation about the Y axis by angle radians.
func RotateY(angle float64) Mat4 {
	s, c := math.Sin(angle), math.Cos(angle)
	m := Identity()
	m.M[0][0], m.M[0][2] = c, s
	m.M[2][0], m.M[2][2] = -s, c
	return m
}

// RotateZ returns a rotation about the Z axis by angle radians.
func RotateZ(angle float64) Mat4 {
	s, c := math.Sin(angle), math.Cos(angle)
	m := Identity()
	m.M[0][0], m.M[0][1] = c, -s
	m.M[1][0], m.M[1][1] = s, c
	return m
}

// RotateAxis returns a rotation of angle radians about an arbitrary unit
// axis (Rodrigues' formula).
func RotateAxis(axis Vec3, angle float64) Mat4 {
	a := axis.Norm()
	s, c := math.Sin(angle), math.Cos(angle)
	t := 1 - c
	m := Identity()
	m.M[0][0] = t*a.X*a.X + c
	m.M[0][1] = t*a.X*a.Y - s*a.Z
	m.M[0][2] = t*a.X*a.Z + s*a.Y
	m.M[1][0] = t*a.X*a.Y + s*a.Z
	m.M[1][1] = t*a.Y*a.Y + c
	m.M[1][2] = t*a.Y*a.Z - s*a.X
	m.M[2][0] = t*a.X*a.Z - s*a.Y
	m.M[2][1] = t*a.Y*a.Z + s*a.X
	m.M[2][2] = t*a.Z*a.Z + c
	return m
}

// MulM returns the matrix product a * b (apply b first, then a).
func (a Mat4) MulM(b Mat4) Mat4 {
	var out Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var s float64
			for k := 0; k < 4; k++ {
				s += a.M[i][k] * b.M[k][j]
			}
			out.M[i][j] = s
		}
	}
	return out
}

// MulPoint applies the affine transform to a point (w = 1).
func (a *Mat4) MulPoint(p Vec3) Vec3 {
	return Vec3{
		a.M[0][0]*p.X + a.M[0][1]*p.Y + a.M[0][2]*p.Z + a.M[0][3],
		a.M[1][0]*p.X + a.M[1][1]*p.Y + a.M[1][2]*p.Z + a.M[1][3],
		a.M[2][0]*p.X + a.M[2][1]*p.Y + a.M[2][2]*p.Z + a.M[2][3],
	}
}

// MulDir applies the transform to a direction (w = 0, no translation).
func (a *Mat4) MulDir(d Vec3) Vec3 {
	return Vec3{
		a.M[0][0]*d.X + a.M[0][1]*d.Y + a.M[0][2]*d.Z,
		a.M[1][0]*d.X + a.M[1][1]*d.Y + a.M[1][2]*d.Z,
		a.M[2][0]*d.X + a.M[2][1]*d.Y + a.M[2][2]*d.Z,
	}
}

// MulNormal transforms a surface normal by the inverse-transpose of the
// matrix. The caller supplies the inverse; this applies its transpose.
func (inv *Mat4) MulNormal(n Vec3) Vec3 {
	return Vec3{
		inv.M[0][0]*n.X + inv.M[1][0]*n.Y + inv.M[2][0]*n.Z,
		inv.M[0][1]*n.X + inv.M[1][1]*n.Y + inv.M[2][1]*n.Z,
		inv.M[0][2]*n.X + inv.M[1][2]*n.Y + inv.M[2][2]*n.Z,
	}
}

// Transpose returns the transpose of the matrix.
func (a Mat4) Transpose() Mat4 {
	var out Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			out.M[i][j] = a.M[j][i]
		}
	}
	return out
}

// Inverse returns the inverse of the matrix and true, or the identity and
// false if the matrix is singular. General Gauss-Jordan with partial
// pivoting; transforms are built once per frame so this is not hot.
func (a Mat4) Inverse() (Mat4, bool) {
	aug := [4][8]float64{}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			aug[i][j] = a.M[i][j]
		}
		aug[i][4+i] = 1
	}
	for col := 0; col < 4; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < 4; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(aug[pivot][col]) < 1e-12 {
			return Identity(), false
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		pv := aug[col][col]
		for j := 0; j < 8; j++ {
			aug[col][j] /= pv
		}
		for r := 0; r < 4; r++ {
			if r == col {
				continue
			}
			f := aug[r][col]
			if f == 0 {
				continue
			}
			for j := 0; j < 8; j++ {
				aug[r][j] -= f * aug[col][j]
			}
		}
	}
	var out Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			out.M[i][j] = aug[i][4+j]
		}
	}
	return out, true
}

// ApproxEq reports whether two matrices agree element-wise within tol.
func (a Mat4) ApproxEq(b Mat4, tol float64) bool {
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(a.M[i][j]-b.M[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

// String implements fmt.Stringer.
func (a Mat4) String() string {
	return fmt.Sprintf("[%v %v %v %v]", a.M[0], a.M[1], a.M[2], a.M[3])
}

// Transform pairs a matrix with its precomputed inverse so objects can map
// rays into object space and normals back out without re-inverting.
type Transform struct {
	Fwd, Inv Mat4
}

// NewTransform builds a Transform from a forward matrix. It panics if the
// matrix is singular, which indicates a malformed scene (zero scale).
func NewTransform(fwd Mat4) Transform {
	inv, ok := fwd.Inverse()
	if !ok {
		panic("vecmath: singular transform")
	}
	return Transform{Fwd: fwd, Inv: inv}
}

// IdentityTransform returns the identity Transform.
func IdentityTransform() Transform {
	return Transform{Fwd: Identity(), Inv: Identity()}
}

// Compose returns the transform that applies t first, then u.
func (t Transform) Compose(u Transform) Transform {
	return Transform{Fwd: u.Fwd.MulM(t.Fwd), Inv: t.Inv.MulM(u.Inv)}
}
