package geom

import (
	"slices"
	"testing"
	"testing/quick"

	"mtmrp/internal/rng"
)

// TestGridIndexMatchesNaive is the correctness property behind the spatial
// index: filtering CandidatesAbove by the exact distance test must select
// the same points as the naive O(n^2) scan — for any placement, cell
// size, query radius and threshold. The candidates above a threshold must
// be the full query's candidates above it, in the same bucket order, with
// no index twice.
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
		var all, above []int32
		for i := range pts {
			all = g.CandidatesAbove(pts[i], radius, -1, all[:0])
			above = g.CandidatesAbove(pts[i], radius, i, above[:0])
			var want []int32
			for _, j := range all {
				if int(j) > i {
					want = append(want, j)
				}
			}
			if !slices.Equal(above, want) {
				return false // not the full query's suffix of each run
			}
			sorted := slices.Clone(all)
			slices.Sort(sorted)
			if len(slices.Compact(sorted)) != len(all) {
				return false // an index returned twice
			}
			var got []int32
			for _, j := range sorted {
				if pts[i].Dist(pts[j]) <= radius {
					got = append(got, j)
				}
			}
			want = want[:0]
			for j := range pts {
				if pts[i].Dist(pts[j]) <= radius {
					want = append(want, int32(j))
				}
			}
			if !slices.Equal(got, want) {
				return false
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
	if got := empty.CandidatesAbove(Point{X: 5, Y: 5}, 100, -1, nil); len(got) != 0 {
		t.Errorf("empty index returned %v", got)
	}

	one := NewGridIndex([]Point{{X: 3, Y: 4}}, 10)
	if got := one.CandidatesAbove(Point{X: 0, Y: 0}, 10, -1, nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("single-point index returned %v", got)
	}

	same := make([]Point, 5)
	g := NewGridIndex(same, 1)
	if got := g.CandidatesAbove(Point{}, 0, -1, nil); len(got) != 5 {
		t.Errorf("co-located points: got %d candidates, want 5", len(got))
	}

	far := NewGridIndex([]Point{{X: 1, Y: 1}, {X: 2, Y: 2}}, 5)
	// A far-away query still clamps into the grid; the exact distance test
	// downstream rejects the candidates.
	if got := far.CandidatesAbove(Point{X: 1e6, Y: 1e6}, 1, -1, nil); len(got) == 0 {
		_ = got // clamping may or may not include cells; either is valid
	}

	defer func() {
		if recover() == nil {
			t.Error("non-positive cell size should panic")
		}
	}()
	NewGridIndex(same, 0)
}
