package geom

import (
	"slices"
	"testing"
	"testing/quick"

	"mtmrp/internal/rng"
)

// TestGridIndexMatchesNaive is the correctness property behind the spatial
// index: filtering Candidates by the exact distance test must select the
// same points, in the same (ascending) order, as the naive O(n^2) scan —
// for any placement, cell size, and query radius. CandidatesUnsorted must
// return the same candidates in some order.
func TestGridIndexMatchesNaive(t *testing.T) {
	f := func(seed uint64, nRaw uint8, cellRaw, rRaw uint16) bool {
		r := rng.New(seed)
		n := int(nRaw%150) + 1
		side := 200.0
		cell := 1 + float64(cellRaw%120)
		radius := float64(rRaw % 250)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: r.Range(0, side), Y: r.Range(0, side)}
		}
		g := NewGridIndex(pts, cell)
		var cand, unsorted []int
		for i := range pts {
			cand = g.Candidates(pts[i], radius, cand[:0])
			unsorted = g.CandidatesUnsorted(pts[i], radius, unsorted[:0])
			slices.Sort(unsorted)
			if !slices.Equal(unsorted, cand) {
				return false // CandidatesUnsorted is not a reordering
			}
			var got []int
			prev := -1
			for _, j := range cand {
				if j <= prev {
					return false // not strictly ascending
				}
				prev = j
				if pts[i].Dist(pts[j]) <= radius {
					got = append(got, j)
				}
			}
			var want []int
			for j := range pts {
				if pts[i].Dist(pts[j]) <= radius {
					want = append(want, j)
				}
			}
			if len(got) != len(want) {
				return false
			}
			for k := range want {
				if got[k] != want[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGridIndexDegenerate covers the edge shapes: no points, a single
// point, all points co-located, and a query disc far outside the field.
func TestGridIndexDegenerate(t *testing.T) {
	empty := NewGridIndex(nil, 10)
	if got := empty.Candidates(Point{X: 5, Y: 5}, 100, nil); len(got) != 0 {
		t.Errorf("empty index returned %v", got)
	}

	one := NewGridIndex([]Point{{X: 3, Y: 4}}, 10)
	if got := one.Candidates(Point{X: 0, Y: 0}, 10, nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("single-point index returned %v", got)
	}

	same := make([]Point, 5)
	g := NewGridIndex(same, 1)
	if got := g.Candidates(Point{}, 0, nil); len(got) != 5 {
		t.Errorf("co-located points: got %d candidates, want 5", len(got))
	}

	far := NewGridIndex([]Point{{X: 1, Y: 1}, {X: 2, Y: 2}}, 5)
	// A far-away query still clamps into the grid; the exact distance test
	// downstream rejects the candidates.
	if got := far.Candidates(Point{X: 1e6, Y: 1e6}, 1, nil); len(got) == 0 {
		_ = got // clamping may or may not include cells; either is valid
	}

	defer func() {
		if recover() == nil {
			t.Error("non-positive cell size should panic")
		}
	}()
	NewGridIndex(same, 0)
}
