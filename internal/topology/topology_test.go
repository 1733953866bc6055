package topology

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"mtmrp/internal/geom"
	"mtmrp/internal/rng"
)

func TestGridShape(t *testing.T) {
	g := PaperGrid()
	if g.N() != 100 {
		t.Fatalf("N = %d, want 100", g.N())
	}
	if g.Positions[0] != (g.Positions[0]) || g.Positions[0].X != 0 || g.Positions[0].Y != 0 {
		t.Errorf("node 0 at %v, want origin", g.Positions[0])
	}
	last := g.Positions[99]
	if math.Abs(last.X-200) > 1e-9 || math.Abs(last.Y-200) > 1e-9 {
		t.Errorf("node 99 at %v, want (200,200)", last)
	}
	// Spacing 200/9 ≈ 22.22.
	if d := g.Positions[0].Dist(g.Positions[1]); math.Abs(d-200.0/9) > 1e-9 {
		t.Errorf("spacing = %v", d)
	}
}

func TestGridNeighborhoods(t *testing.T) {
	g := PaperGrid()
	// Interior node: 8 neighbors (orthogonal ≈22.2 m and diagonal ≈31.4 m
	// both inside the 40 m disc; 2 cells away is 44.4 m, outside).
	interior := 5*10 + 5
	if d := len(g.Neighbors(interior)); d != 8 {
		t.Errorf("interior degree = %d, want 8", d)
	}
	// Corner node (0,0): 3 neighbors.
	if d := len(g.Neighbors(0)); d != 3 {
		t.Errorf("corner degree = %d, want 3", d)
	}
	// Edge node: 5 neighbors.
	if d := len(g.Neighbors(5)); d != 5 {
		t.Errorf("edge degree = %d, want 5", d)
	}
}

func TestGridConnected(t *testing.T) {
	if !PaperGrid().Connected() {
		t.Error("paper grid must be connected")
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := Grid(1, 1, 100, 40); err != ErrTooFewNodes {
		t.Errorf("want ErrTooFewNodes, got %v", err)
	}
	if _, err := Grid(0, 5, 100, 40); err != ErrTooFewNodes {
		t.Errorf("want ErrTooFewNodes, got %v", err)
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	r := rng.New(1)
	topo, err := Random(100, 200, 40, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < topo.N(); i++ {
		for _, j := range topo.Neighbors(i) {
			if j == i {
				t.Fatalf("self-loop at %d", i)
			}
			found := false
			for _, k := range topo.Neighbors(j) {
				if k == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency asymmetric: %d->%d", i, j)
			}
		}
	}
}

func TestAdjacencyMatchesRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		topo, err := Random(30, 100, 40, r)
		if err != nil {
			return false
		}
		for i := 0; i < topo.N(); i++ {
			nb := map[int]bool{}
			for _, j := range topo.Neighbors(i) {
				nb[j] = true
			}
			for j := 0; j < topo.N(); j++ {
				if j == i {
					continue
				}
				inRange := topo.Positions[i].DistSq(topo.Positions[j]) <= topo.Range*topo.Range
				if inRange != nb[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// naiveAdjacency is the O(n²) reference for buildAdjacency: every pair
// with DistSq <= Range², each list in ascending order.
func naiveAdjacency(pts []geom.Point, r float64) [][]int {
	adj := make([][]int, len(pts))
	for i := range pts {
		for j := range pts {
			if j != i && pts[i].DistSq(pts[j]) <= r*r {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

// TestAdjacencyMatchesNaive holds the sweep-and-transpose adjacency to
// the all-pairs scan, list for list and in order, on the paper grid (its
// diagonals and axis neighbours at fixed spacings), random fields of
// several densities, co-located points and pairs exactly on, and within
// an ulp of, the range. Every list must also be a capacity-capped run of
// one flat slice.
func TestAdjacencyMatchesNaive(t *testing.T) {
	const rg = 40.0
	r := rng.New(9)
	layouts := map[string][]geom.Point{"paper-grid": PaperGrid().Positions}
	for _, n := range []int{2, 30, 200, 1000} {
		layouts[fmt.Sprintf("random-%d", n)] = randomPoints(r, n, ScaledField(n))
	}
	coLocated := randomPoints(r, 40, 100)
	for i := 1; i < len(coLocated); i += 3 {
		coLocated[i] = coLocated[i-1]
	}
	layouts["co-located"] = coLocated
	// Anchored at X = 0, b lies exactly rg away; c, on a circle of radius
	// rg around a, lies within an ulp or so of it, either side.
	var boundary []geom.Point
	for k := 0; k < 64; k++ {
		a := geom.Point{X: 0, Y: r.Range(0, 300)}
		theta := r.Range(0, 2*math.Pi)
		c := a.Add(geom.Point{X: rg * math.Cos(theta), Y: rg * math.Sin(theta)})
		boundary = append(boundary, a, geom.Point{X: rg, Y: a.Y}, c)
	}
	layouts["boundary"] = boundary
	for name, pts := range layouts {
		topo, err := FromPositions(pts, 300, rg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := naiveAdjacency(pts, rg)
		edges := 0
		for i := range pts {
			got := topo.Neighbors(i)
			if !slices.Equal(got, want[i]) {
				t.Fatalf("%s node %d: neighbours %v, want %v", name, i, got, want[i])
			}
			if cap(got) != len(got) {
				t.Fatalf("%s node %d: %d neighbours, capacity %d", name, i, len(got), cap(got))
			}
			edges += len(got)
		}
		if edges == 0 {
			t.Fatalf("%s: no edges", name)
		}
	}
}

// randomPoints draws n uniform positions in a side x side square.
func randomPoints(r *rng.RNG, n int, side float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, side), Y: r.Range(0, side)}
	}
	return pts
}

func TestRandomPinsSource(t *testing.T) {
	r := rng.New(2)
	topo, err := Random(50, 200, 40, r)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Positions[0].X != 0 || topo.Positions[0].Y != 0 {
		t.Errorf("node 0 at %v, want origin", topo.Positions[0])
	}
	for i, p := range topo.Positions {
		if !p.In(200) {
			t.Errorf("node %d at %v outside field", i, p)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, _ := Random(50, 200, 40, rng.New(7))
	b, _ := Random(50, 200, 40, rng.New(7))
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatalf("node %d differs across same-seed runs", i)
		}
	}
}

func TestPaperRandomConnected(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		topo, err := PaperRandom(rng.New(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !topo.Connected() {
			t.Fatalf("seed %d: PaperRandom returned disconnected topology", seed)
		}
		if topo.N() != 200 {
			t.Fatalf("N = %d", topo.N())
		}
	}
}

func TestRandomConnectedGivesUp(t *testing.T) {
	// 3 nodes, tiny range, large field: essentially never connected.
	r := rng.New(3)
	if _, err := RandomConnected(3, 1000, 1, r, 5); err != ErrDisconnected {
		t.Errorf("want ErrDisconnected, got %v", err)
	}
}

func TestTooFewNodes(t *testing.T) {
	if _, err := Random(1, 100, 40, rng.New(1)); err != ErrTooFewNodes {
		t.Errorf("want ErrTooFewNodes, got %v", err)
	}
}

func TestPickReceivers(t *testing.T) {
	topo := PaperGrid()
	r := rng.New(4)
	rcv, err := topo.PickReceivers(0, 20, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rcv) != 20 {
		t.Fatalf("got %d receivers", len(rcv))
	}
	seen := map[int]bool{}
	for _, v := range rcv {
		if v == 0 {
			t.Error("source selected as receiver")
		}
		if seen[v] {
			t.Error("duplicate receiver")
		}
		seen[v] = true
	}
}

func TestPickReceiversTooMany(t *testing.T) {
	topo := PaperGrid()
	if _, err := topo.PickReceivers(0, 100, rng.New(1)); err == nil {
		t.Error("should fail: only 99 non-source nodes")
	}
}

func TestPickReceiversOnlyReachable(t *testing.T) {
	// Two clusters far apart: receivers must come from the source's cluster.
	r := rng.New(5)
	topo, err := Random(2, 1000, 1, r) // node 0 at origin, node 1 random far away
	if err != nil {
		t.Fatal(err)
	}
	if topo.Connected() {
		t.Skip("unlucky draw: connected")
	}
	if _, err := topo.PickReceivers(0, 1, r); err == nil {
		t.Error("unreachable node must not be selectable")
	}
}

func TestReachableFrom(t *testing.T) {
	topo := PaperGrid()
	reach := topo.ReachableFrom(0)
	for i, ok := range reach {
		if !ok {
			t.Fatalf("grid node %d unreachable", i)
		}
	}
}

func TestAvgDegree(t *testing.T) {
	topo := PaperGrid()
	// Hand count: 4 corners * 3 + 32 edge * 5 + 64 interior * 8 = 684 ends.
	want := 684.0 / 100
	if got := topo.AvgDegree(); math.Abs(got-want) > 1e-9 {
		t.Errorf("AvgDegree = %v, want %v", got, want)
	}
}

func TestKind(t *testing.T) {
	if PaperGrid().Kind() != "grid-10x10" {
		t.Errorf("Kind = %q", PaperGrid().Kind())
	}
	topo, _ := Random(10, 100, 40, rng.New(1))
	if topo.Kind() != "random-10" {
		t.Errorf("Kind = %q", topo.Kind())
	}
}

// BenchmarkTopologyBuild measures a random deployment with its unit-disc
// adjacency on the paper's 200-node field and on a 10k-node field of the
// same density (ScaledField). The positions are drawn once, off the
// clock; each iteration builds the adjacency over them.
func BenchmarkTopologyBuild(b *testing.B) {
	for _, n := range []int{200, 10000} {
		side := ScaledField(n)
		pts := randomPoints(rng.New(7), n, side)
		b.Run(fmt.Sprintf("%dnodes", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FromPositions(pts, side, 40); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
