package geom

import (
	"slices"
	"testing"
	"testing/quick"

	"mtmrp/internal/rng"
)

// filtered applies the exact distance test to a candidate query around q.
func filtered(g *GridIndex, pts []Point, q Point, radius float64, cand []int32) []int32 {
	cand = g.CandidatesAbove(q, radius, -1, cand[:0])
	slices.Sort(cand)
	var out []int32
	for _, j := range cand {
		if q.Dist(pts[j]) <= radius {
			out = append(out, j)
		}
	}
	return out
}

// TestGridMoveMatchesRebuild is the Move correctness property: after any
// sequence of moves, filtering CandidatesAbove by the exact distance test must
// select the same points as a grid rebuilt from scratch over the moved
// positions. The candidate supersets may differ (the moved grid keeps its
// original bounds; the rebuilt one recomputes them), but the filtered
// results cannot.
func TestGridMoveMatchesRebuild(t *testing.T) {
	f := func(seed uint64, nRaw uint8, cellRaw, rRaw uint16, moves uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%120) + 2
		side := 200.0
		cell := 1 + float64(cellRaw%120)
		radius := float64(rRaw % 250)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: r.Range(0, side), Y: r.Range(0, side)}
		}
		g := NewGridIndex(pts, cell)
		var cand, a, b []int32
		for m := 0; m < int(moves%40)+1; m++ {
			id := r.Intn(n)
			// Bias across cell boundaries and past the field border: a
			// third of the moves land outside the original bounding box.
			p := Point{X: r.Range(-side/2, 1.5*side), Y: r.Range(-side/2, 1.5*side)}
			pts[id] = p
			g.Move(id, p)
			fresh := NewGridIndex(pts, cell)
			for i := range pts {
				a = filtered(g, pts, pts[i], radius, cand)
				b = filtered(fresh, pts, pts[i], radius, cand)
				if len(a) != len(b) {
					return false
				}
				for k := range a {
					if a[k] != b[k] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGridMoveBookkeeping pins the bucket invariants Move maintains:
// every point is in exactly one bucket, the bucket cellOf its position
// maps to, and every bucket stays strictly ascending.
func TestGridMoveBookkeeping(t *testing.T) {
	r := rng.New(11)
	side := 100.0
	pts := make([]Point, 50)
	for i := range pts {
		pts[i] = Point{X: r.Range(0, side), Y: r.Range(0, side)}
	}
	g := NewGridIndex(pts, 7)
	for m := 0; m < 500; m++ {
		id := r.Intn(len(pts))
		p := Point{X: r.Range(-20, side+20), Y: r.Range(-20, side+20)}
		pts[id] = p
		g.Move(id, p)
	}
	seen := make(map[int32]int)
	for c, b := range g.buckets {
		prev := int32(-1)
		for _, v := range b {
			if v <= prev {
				t.Fatalf("bucket %d not strictly ascending: %v", c, b)
			}
			prev = v
			seen[v]++
			if g.cells[v] != int32(c) {
				t.Fatalf("point %d in bucket %d but cells[%d]=%d", v, c, v, g.cells[v])
			}
			if g.cellOf(pts[v]) != c {
				t.Fatalf("point %d at %v bucketed in %d, cellOf says %d", v, pts[v], c, g.cellOf(pts[v]))
			}
		}
	}
	for i := range pts {
		if seen[int32(i)] != 1 {
			t.Fatalf("point %d appears in %d buckets", i, seen[int32(i)])
		}
	}
}

// TestGridMoveNoOp pins that a move within the same cell touches nothing.
func TestGridMoveNoOp(t *testing.T) {
	pts := []Point{{X: 1, Y: 1}, {X: 50, Y: 50}}
	g := NewGridIndex(pts, 10)
	before := g.cells[0]
	g.Move(0, Point{X: 2, Y: 2}) // same 10 m cell
	if g.cells[0] != before {
		t.Fatalf("intra-cell move re-bucketed the point")
	}
	var cand []int32
	cand = g.CandidatesAbove(Point{X: 1, Y: 1}, 5, -1, cand)
	if len(cand) != 1 || cand[0] != 0 {
		t.Fatalf("candidates after intra-cell move: %v", cand)
	}
}
