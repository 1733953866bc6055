package graph

import (
	"testing"
	"testing/quick"

	"mtmrp/internal/rng"
)

// line returns a path graph 0-1-2-...-n-1.
func line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

// randomGraph returns a random connected-ish graph for property tests.
func randomGraph(r *rng.RNG, n int, extraEdges int) *Graph {
	g := New(n)
	seen := map[[2]int]bool{}
	add := func(u, v int) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			return
		}
		seen[[2]int{u, v}] = true
		g.AddEdge(u, v, 1+r.Float64())
	}
	// Random spanning tree first (guarantees connectivity).
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		add(perm[i], perm[r.Intn(i)])
	}
	for i := 0; i < extraEdges; i++ {
		add(r.Intn(n), r.Intn(n))
	}
	return g
}

func TestBFSLine(t *testing.T) {
	g := line(5)
	dist, parent := g.BFS(0)
	for i := 0; i < 5; i++ {
		if dist[i] != i {
			t.Errorf("dist[%d] = %d", i, dist[i])
		}
	}
	if parent[0] != Unreachable {
		t.Error("root should have no parent")
	}
	if parent[3] != 2 {
		t.Errorf("parent[3] = %d", parent[3])
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	dist, parent := g.BFS(0)
	if dist[2] != Unreachable || parent[3] != 2 && parent[3] != Unreachable {
		// only reachability of 2,3 matters
	}
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Error("isolated component should be unreachable")
	}
}

func TestMSTLine(t *testing.T) {
	g := line(4)
	edges, err := g.MST()
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 3 {
		t.Fatalf("MST has %d edges", len(edges))
	}
}

func TestMSTDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	if _, err := g.MST(); err != ErrDisconnected {
		t.Errorf("want ErrDisconnected, got %v", err)
	}
}

func TestMSTWeightOptimalTriangle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(0, 2, 5)
	edges, err := g.MST()
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, e := range edges {
		total += e.Weight
	}
	if total != 3 {
		t.Errorf("MST weight = %v, want 3", total)
	}
}

// Property: MST weight is <= weight of a random spanning tree, and the MST
// spans all vertices.
func TestMSTProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(20)
		g := randomGraph(r, n, n)
		edges, err := g.MST()
		if err != nil || len(edges) != n-1 {
			return false
		}
		// Spanning check via union of edges.
		uf := make([]int, n)
		for i := range uf {
			uf[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for uf[x] != x {
				uf[x] = uf[uf[x]]
				x = uf[x]
			}
			return x
		}
		for _, e := range edges {
			ru, rv := find(e.U), find(e.V)
			if ru == rv {
				return false // cycle in claimed tree
			}
			uf[ru] = rv
		}
		root := find(0)
		for i := 1; i < n; i++ {
			if find(i) != root {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPathTo(t *testing.T) {
	g := line(5)
	_, parent := g.BFS(0)
	p := PathTo(parent, 0, 4)
	want := []int{0, 1, 2, 3, 4}
	if len(p) != len(want) {
		t.Fatalf("path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v", p)
		}
	}
	if got := PathTo(parent, 0, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("self path = %v", got)
	}
}

func TestPathToUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	_, parent := g.BFS(0)
	if PathTo(parent, 0, 2) != nil {
		t.Error("unreachable should give nil path")
	}
}

func TestCoversReceivers(t *testing.T) {
	// 0-1-2-3; forwarding set {1,2} covers receiver 3; {1} does not.
	g := line(4)
	if !g.CoversReceivers(0, map[int]bool{1: true, 2: true}, []int{3}) {
		t.Error("{1,2} should cover 3")
	}
	if g.CoversReceivers(0, map[int]bool{1: true}, []int{3}) {
		t.Error("{1} should not cover 3")
	}
	// Receiver one hop from source needs no forwarders.
	if !g.CoversReceivers(0, map[int]bool{}, []int{1}) {
		t.Error("adjacent receiver should be covered by source alone")
	}
}

func TestTransmissionCount(t *testing.T) {
	g := line(4)
	if got := g.TransmissionCount(0, map[int]bool{1: true, 2: true}); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	// Forwarder 3 never hears the packet without 1 and 2: only source transmits.
	if got := g.TransmissionCount(0, map[int]bool{3: true}); got != 1 {
		t.Errorf("count = %d, want 1 (unreached forwarder must not count)", got)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(2)
	for _, fn := range []func(){
		func() { g.AddEdge(0, 0, 1) },
		func() { g.AddEdge(0, 5, 1) },
		func() { g.AddEdge(-1, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFromAdjacency(t *testing.T) {
	adj := [][]int{{1}, {0, 2}, {1}}
	g := FromAdjacency(adj)
	if g.N() != 3 || len(g.Neighbors(1)) != 2 {
		t.Errorf("FromAdjacency wrong: n=%d neighbors(1)=%v", g.N(), g.Neighbors(1))
	}
	if nb := g.Neighbors(1); len(nb) != 2 || nb[0].To != 0 || nb[1].To != 2 {
		t.Errorf("Neighbors(1) = %v", nb)
	}
}

func BenchmarkBFS200(b *testing.B) {
	r := rng.New(1)
	g := randomGraph(r, 200, 800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(0)
	}
}
