package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 2}, 1},
		{Point{-3, -4}, Point{0, 0}, 5},
		{Point{200, 200}, Point{0, 0}, 200 * math.Sqrt2},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p := Point{ax, ay}
		q := Point{bx, by}
		return p.Dist(q) == q.Dist(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistSqMatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Keep magnitudes sane so squaring doesn't overflow to Inf.
		p := Point{math.Mod(ax, 1e6), math.Mod(ay, 1e6)}
		q := Point{math.Mod(bx, 1e6), math.Mod(by, 1e6)}
		d := p.Dist(q)
		return math.Abs(p.DistSq(q)-d*d) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{math.Mod(ax, 1e3), math.Mod(ay, 1e3)}
		b := Point{math.Mod(bx, 1e3), math.Mod(by, 1e3)}
		c := Point{math.Mod(cx, 1e3), math.Mod(cy, 1e3)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestIn(t *testing.T) {
	cases := []struct {
		p    Point
		side float64
		want bool
	}{
		{Point{0, 0}, 200, true},
		{Point{200, 200}, 200, true},
		{Point{100, 100}, 200, true},
		{Point{-0.1, 0}, 200, false},
		{Point{0, 200.1}, 200, false},
	}
	for _, c := range cases {
		if got := c.p.In(c.side); got != c.want {
			t.Errorf("%v.In(%v) = %v, want %v", c.p, c.side, got, c.want)
		}
	}
}

func TestClamp(t *testing.T) {
	cases := []struct {
		in, want Point
	}{
		{Point{-5, 100}, Point{0, 100}},
		{Point{250, -1}, Point{200, 0}},
		{Point{50, 60}, Point{50, 60}},
	}
	for _, c := range cases {
		if got := c.in.Clamp(200); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestClampAlwaysIn(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		return (Point{x, y}).Clamp(200).In(200)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
