package topology

import (
	"math"
	"testing"
	"testing/quick"

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
				inRange := topo.Positions[i].Dist(topo.Positions[j]) <= topo.Range
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
