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
	// Appending in point order keeps every bucket ascending by index, which
	// lets Candidates return a deterministic, sorted result.
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
// point count — and both stay ascending, so Candidates' contract is
// unchanged. The grid's bounds are a build-time property, not a fence:
// a point moving outside the original bounding box lands in the border
// cell on that side (cellOf clamps), and because Candidates clamps its
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

// Candidates appends to out the indices of every point whose cell overlaps
// the disc of radius r around p — a superset of the points within r — and
// returns the result in ascending index order. The caller applies its own
// exact distance test; this keeps the query free of any assumption about
// which metric (distance, squared distance, path loss) gates membership.
//
// Passing a reused out[:0] keeps queries allocation-free once warm.
func (g *GridIndex) Candidates(p Point, r float64, out []int) []int {
	out, runs := g.appendCells(p, r, out)
	// Buckets are individually ascending, so the result of a query that
	// hit one bucket is already sorted. Merging multiple runs by sorting
	// keeps the contract (ascending output) with a trivially small
	// constant at WSN densities.
	if runs > 1 {
		sort.Ints(out)
	}
	return out
}

// CandidatesUnsorted appends the same indices as Candidates, in bucket
// order instead of ascending order: each bucket's run is ascending, the
// runs are not merged. A caller that keeps only some candidates and
// orders those itself skips sorting the ones it drops.
func (g *GridIndex) CandidatesUnsorted(p Point, r float64, out []int) []int {
	out, _ = g.appendCells(p, r, out)
	return out
}

// appendCells appends the contents of every bucket overlapping the disc
// of radius r around p and reports how many non-empty buckets it read.
func (g *GridIndex) appendCells(p Point, r float64, out []int) ([]int, int) {
	if r < 0 {
		return out, 0
	}
	ix0 := g.clamp(int((p.X-r-g.minX)/g.cell), g.nx)
	ix1 := g.clamp(int((p.X+r-g.minX)/g.cell), g.nx)
	iy0 := g.clamp(int((p.Y-r-g.minY)/g.cell), g.ny)
	iy1 := g.clamp(int((p.Y+r-g.minY)/g.cell), g.ny)
	runs := 0
	for iy := iy0; iy <= iy1; iy++ {
		row := iy * g.nx
		for ix := ix0; ix <= ix1; ix++ {
			b := g.buckets[row+ix]
			if len(b) == 0 {
				continue
			}
			runs++
			for _, idx := range b {
				out = append(out, int(idx))
			}
		}
	}
	return out, runs
}
