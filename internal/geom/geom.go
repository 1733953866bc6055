// Package geom provides the small amount of 2-D geometry the simulator
// needs: points in the plane, distances, and axis-aligned bounds checks.
//
// All coordinates are in meters, matching the paper's 200 m x 200 m field.
package geom

import "math"

// Point is a location in the 2-D deployment plane, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistSq returns the squared Euclidean distance between p and q.
// It avoids the square root for range comparisons on the hot path.
func (p Point) DistSq(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns the component-wise sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the component-wise difference p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// In reports whether p lies inside the axis-aligned rectangle
// [0,side] x [0,side].
func (p Point) In(side float64) bool {
	return p.X >= 0 && p.X <= side && p.Y >= 0 && p.Y <= side
}

// Clamp returns p with both coordinates clamped into [0, side].
func (p Point) Clamp(side float64) Point {
	c := p
	if c.X < 0 {
		c.X = 0
	} else if c.X > side {
		c.X = side
	}
	if c.Y < 0 {
		c.Y = 0
	} else if c.Y > side {
		c.Y = side
	}
	return c
}
