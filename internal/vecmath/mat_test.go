package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIdentityIsNeutral(t *testing.T) {
	p := V(3, -2, 7)
	id := Identity()
	if got := id.MulPoint(p); got != p {
		t.Errorf("I*p = %v", got)
	}
	if got := id.MulDir(p); got != p {
		t.Errorf("I*d = %v", got)
	}
}

func TestTranslate(t *testing.T) {
	m := Translate(1, 2, 3)
	if got := m.MulPoint(V(0, 0, 0)); got != V(1, 2, 3) {
		t.Errorf("translate point = %v", got)
	}
	// Directions are unaffected by translation.
	if got := m.MulDir(V(1, 0, 0)); got != V(1, 0, 0) {
		t.Errorf("translate dir = %v", got)
	}
}

func TestScaling(t *testing.T) {
	m := Scaling(2, 3, 4)
	if got := m.MulPoint(V(1, 1, 1)); got != V(2, 3, 4) {
		t.Errorf("scale = %v", got)
	}
}

func TestRotations(t *testing.T) {
	// 90-degree rotations map axes onto axes.
	cases := []struct {
		m    Mat4
		in   Vec3
		want Vec3
	}{
		{RotateX(math.Pi / 2), V(0, 1, 0), V(0, 0, 1)},
		{RotateY(math.Pi / 2), V(0, 0, 1), V(1, 0, 0)},
		{RotateZ(math.Pi / 2), V(1, 0, 0), V(0, 1, 0)},
		{RotateAxis(V(0, 0, 1), math.Pi/2), V(1, 0, 0), V(0, 1, 0)},
	}
	for i, c := range cases {
		got := c.m.MulDir(c.in)
		if !got.ApproxEq(c.want, 1e-12) {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestRotationPreservesLength(t *testing.T) {
	m := RotateAxis(V(1, 2, 3), 1.2345)
	v := V(-4, 5, 0.5)
	if math.Abs(m.MulDir(v).Len()-v.Len()) > 1e-12 {
		t.Error("rotation changed vector length")
	}
}

func TestMatMulAssociativity(t *testing.T) {
	a := RotateX(0.3)
	b := Translate(1, 2, 3)
	c := Scaling(2, 2, 2)
	lhs := a.MulM(b).MulM(c)
	rhs := a.MulM(b.MulM(c))
	if !lhs.ApproxEq(rhs, 1e-12) {
		t.Error("matrix multiplication not associative")
	}
}

func TestInverseRoundTrip(t *testing.T) {
	m := Translate(1, -2, 3).MulM(RotateY(0.7)).MulM(Scaling(2, 0.5, 3))
	inv, ok := m.Inverse()
	if !ok {
		t.Fatal("invertible matrix reported singular")
	}
	if got := m.MulM(inv); !got.ApproxEq(Identity(), 1e-9) {
		t.Errorf("m * m^-1 != I: %v", got)
	}
	p := V(0.4, -7, 2)
	back := inv.MulPoint(m.MulPoint(p))
	if !back.ApproxEq(p, 1e-9) {
		t.Errorf("inverse round trip: %v != %v", back, p)
	}
}

func TestInverseSingular(t *testing.T) {
	if _, ok := Scaling(1, 0, 1).Inverse(); ok {
		t.Error("singular matrix reported invertible")
	}
}

func TestTranspose(t *testing.T) {
	m := Translate(1, 2, 3)
	tt := m.Transpose().Transpose()
	if !tt.ApproxEq(m, 0) {
		t.Error("double transpose != original")
	}
	if m.Transpose().M[3][0] != 1 {
		t.Error("transpose did not move translation column")
	}
}

func TestMulNormalPlane(t *testing.T) {
	// Scaling a plane's geometry by (2,1,1) must keep the normal of the
	// YZ-plane pointing along X after inverse-transpose transform.
	m := Scaling(2, 1, 1)
	inv, _ := m.Inverse()
	n := inv.MulNormal(V(1, 0, 0)).Norm()
	if !n.ApproxEq(V(1, 0, 0), 1e-12) {
		t.Errorf("normal = %v", n)
	}
	// Non-uniform scale on a slanted normal: normal must stay
	// perpendicular to transformed tangent.
	m = Scaling(1, 4, 1)
	inv, _ = m.Inverse()
	tangent := V(1, -1, 0) // tangent of plane x+y=0
	normal := V(1, 1, 0)
	tn := m.MulDir(tangent)
	nn := inv.MulNormal(normal)
	if math.Abs(tn.Dot(nn)) > 1e-12 {
		t.Errorf("transformed normal not perpendicular: dot=%v", tn.Dot(nn))
	}
}

func TestTransformCompose(t *testing.T) {
	a := NewTransform(Translate(1, 0, 0))
	b := NewTransform(Scaling(2, 2, 2))
	// Compose applies a first, then b.
	ab := a.Compose(b)
	p := V(1, 1, 1)
	want := b.Fwd.MulPoint(a.Fwd.MulPoint(p))
	if got := ab.Fwd.MulPoint(p); !got.ApproxEq(want, 1e-12) {
		t.Errorf("compose fwd = %v, want %v", got, want)
	}
	// And the inverse undoes it.
	if got := ab.Inv.MulPoint(ab.Fwd.MulPoint(p)); !got.ApproxEq(p, 1e-9) {
		t.Errorf("compose inverse round trip = %v", got)
	}
}

func TestNewTransformPanicsOnSingular(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for singular transform")
		}
	}()
	NewTransform(Scaling(0, 1, 1))
}

// Property: for random affine transforms built from rotations and
// translations (always invertible), Inverse is a true inverse.
func TestQuickInverse(t *testing.T) {
	f := func(rx, ry, rz, tx, ty, tz float64) bool {
		if anyBad(rx, ry, rz, tx, ty, tz) {
			return true
		}
		rx, ry, rz = clampAngle(rx), clampAngle(ry), clampAngle(rz)
		tx, ty, tz = clampT(tx), clampT(ty), clampT(tz)
		m := Translate(tx, ty, tz).MulM(RotateX(rx)).MulM(RotateY(ry)).MulM(RotateZ(rz))
		inv, ok := m.Inverse()
		if !ok {
			return false
		}
		return m.MulM(inv).ApproxEq(Identity(), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func anyBad(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

func clampAngle(x float64) float64 { return math.Mod(x, 2*math.Pi) }
func clampT(x float64) float64     { return math.Mod(x, 1000) }
