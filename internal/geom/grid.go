package geom

import (
	"math"
	"sort"
)

// GridIndex buckets points into square cells so that range queries touch
// only the cells overlapping the query disc instead of every point. It is
// the standard uniform-grid spatial index for unit-disc connectivity:
// construction is O(n), and a radius-r query costs O(points in the cells
// under the disc's bounding square) — O(density) for fields much larger
// than r, instead of O(n).
//
// The build path never mutates an index after construction, so an index
// that is only queried is safe for concurrent reads. Move re-buckets a
// single point in place for dynamic topologies; an index being moved is
// single-goroutine, like the simulation that owns it.
type GridIndex struct {
	cell       float64 // cell edge length (> 0, finite)
	minX, minY float64
	nx, ny     int
	buckets    [][]int32 // point indices per cell, ascending within a cell
	cells      []int32   // cells[i] = bucket of point i (Move bookkeeping)
}

// NewGridIndex builds an index over pts with the given cell edge length.
// Cell size is a query-performance knob only — correctness is independent
// of it; around half the typical query radius is a good choice. It panics
// if cell is not positive and finite.
func NewGridIndex(pts []Point, cell float64) *GridIndex {
	if !(cell > 0) || math.IsInf(cell, 1) {
		panic("geom: grid cell size must be positive and finite")
	}
	g := &GridIndex{cell: cell, nx: 1, ny: 1}
	if len(pts) == 0 {
		g.buckets = make([][]int32, 1)
		return g
	}
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := pts[0].X, pts[0].Y
	for _, p := range pts[1:] {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	g.minX, g.minY = minX, minY
	g.nx = g.cellsAcross(maxX - minX)
	g.ny = g.cellsAcross(maxY - minY)
	g.buckets = make([][]int32, g.nx*g.ny)
	// Size the buckets first and carve them from one slice, each capped at
	// its count: construction allocates a constant number of times, and a
	// bucket that Move grows past its run moves to its own allocation
	// instead of overwriting the next bucket's.
	counts := make([]int32, g.nx*g.ny)
	for _, p := range pts {
		counts[g.cellOf(p)]++
	}
	flat := make([]int32, len(pts))
	off := 0
	for c, n := range counts {
		end := off + int(n)
		g.buckets[c] = flat[off:off:end]
		off = end
	}
	// Appending in point order keeps every bucket ascending by index, so a
	// query finds a bucket's indices above a threshold as one suffix.
	g.cells = make([]int32, len(pts))
	for i, p := range pts {
		c := g.cellOf(p)
		g.buckets[c] = append(g.buckets[c], int32(i))
		g.cells[i] = int32(c)
	}
	return g
}

// Move re-buckets point id at its new position p. Only the two affected
// buckets are touched — O(bucket occupancy), independent of the total
// point count — and both stay ascending, so CandidatesAbove's contract
// is unchanged. The grid's bounds are a build-time property, not a fence:
// a point moving outside the original bounding box lands in the border
// cell on that side (cellOf clamps), and because CandidatesAbove clamps its
// query rectangle the same way, its results remain a superset of the
// points within the query radius.
func (g *GridIndex) Move(id int, p Point) {
	c := int32(g.cellOf(p))
	old := g.cells[id]
	if c == old {
		return
	}
	g.cells[id] = c
	g.buckets[old] = removeSorted(g.buckets[old], int32(id))
	g.buckets[c] = insertSorted(g.buckets[c], int32(id))
}

// removeSorted deletes v from the ascending slice b, preserving order.
func removeSorted(b []int32, v int32) []int32 {
	i := sort.Search(len(b), func(k int) bool { return b[k] >= v })
	if i >= len(b) || b[i] != v {
		return b // not present; nothing to do
	}
	copy(b[i:], b[i+1:])
	return b[:len(b)-1]
}

// insertSorted inserts v into the ascending slice b, preserving order.
func insertSorted(b []int32, v int32) []int32 {
	i := sort.Search(len(b), func(k int) bool { return b[k] >= v })
	b = append(b, 0)
	copy(b[i+1:], b[i:])
	b[i] = v
	return b
}

// cellsAcross returns the cell count covering a span of the given extent.
func (g *GridIndex) cellsAcross(extent float64) int {
	n := int(extent/g.cell) + 1
	if n < 1 {
		return 1
	}
	return n
}

// cellOf maps a point to its bucket index, clamping to the grid bounds.
func (g *GridIndex) cellOf(p Point) int {
	ix := g.clamp(int((p.X-g.minX)/g.cell), g.nx)
	iy := g.clamp(int((p.Y-g.minY)/g.cell), g.ny)
	return iy*g.nx + ix
}

func (g *GridIndex) clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// CandidatesAbove appends to out the indices above i of every point
// whose cell overlaps the disc of radius r around p — a superset of the
// points above i within r — and returns the result. The caller applies
// its own exact distance test; this keeps the query free of any
// assumption about which metric (distance, squared distance, path loss)
// gates membership.
//
// The result comes in bucket order: each bucket's run is ascending, the
// runs are not merged. A build that visits every pair once, from its
// lower index, passes that index as i; i = -1 returns every candidate.
// Passing a reused out[:0] keeps queries allocation-free once warm.
func (g *GridIndex) CandidatesAbove(p Point, r float64, i int, out []int32) []int32 {
	if r < 0 {
		return out
	}
	ix0 := g.clamp(int((p.X-r-g.minX)/g.cell), g.nx)
	ix1 := g.clamp(int((p.X+r-g.minX)/g.cell), g.nx)
	iy0 := g.clamp(int((p.Y-r-g.minY)/g.cell), g.ny)
	iy1 := g.clamp(int((p.Y+r-g.minY)/g.cell), g.ny)
	for iy := iy0; iy <= iy1; iy++ {
		for _, b := range g.buckets[iy*g.nx+ix0 : iy*g.nx+ix1+1] {
			// A bucket ascends, so its indices above i are a suffix.
			if len(b) == 0 || int(b[len(b)-1]) <= i {
				continue
			}
			k := 0
			for int(b[k]) <= i {
				k++
			}
			out = append(out, b[k:]...)
		}
	}
	return out
}
