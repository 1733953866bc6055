// Package topology generates the node deployments used in the paper's
// evaluation (§V.A): a 10x10 uniform grid and uniform-random placements in
// a 200 m x 200 m field, plus the adjacency structure induced by a fixed
// transmission range (40 m).
//
// Random placement substitutes for ns-2's setdest tool (static scenarios:
// setdest with zero speed is uniform random placement).
package topology

import (
	"errors"
	"fmt"
	"math"

	"mtmrp/internal/geom"
	"mtmrp/internal/rng"
)

// Topology is an immutable node deployment plus its connectivity graph.
type Topology struct {
	Positions []geom.Point
	Side      float64 // field edge length in meters
	Range     float64 // transmission range in meters
	adj       [][]int // adjacency lists by index (symmetric, no self-loops)
	kind      string
}

// Errors returned by generators.
var (
	ErrTooFewNodes  = errors.New("topology: need at least 2 nodes")
	ErrDisconnected = errors.New("topology: could not generate a connected deployment")
)

// Grid places nx*ny nodes on a uniform grid spanning [0,side]^2, with node
// (0,0) at the origin — the paper's source position. Node index is
// row-major: id = y*nx + x.
func Grid(nx, ny int, side, txRange float64) (*Topology, error) {
	if nx < 1 || ny < 1 || nx*ny < 2 {
		return nil, ErrTooFewNodes
	}
	pts := make([]geom.Point, 0, nx*ny)
	dx := 0.0
	if nx > 1 {
		dx = side / float64(nx-1)
	}
	dy := 0.0
	if ny > 1 {
		dy = side / float64(ny-1)
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			pts = append(pts, geom.Point{X: float64(x) * dx, Y: float64(y) * dy})
		}
	}
	t := &Topology{Positions: pts, Side: side, Range: txRange,
		kind: fmt.Sprintf("grid-%dx%d", nx, ny)}
	t.buildAdjacency()
	return t, nil
}

// PaperGrid is the exact grid from §V.A: 10x10 nodes in 200x200 m, 40 m
// range. Spacing is 200/9 ≈ 22.2 m, so each interior node has 8 neighbors
// (the diagonal at ≈31.4 m is inside the 40 m disc).
func PaperGrid() *Topology {
	t, err := Grid(10, 10, 200, 40)
	if err != nil {
		panic(err) // static parameters; cannot fail
	}
	return t
}

// Random places n nodes uniformly at random in [0,side]^2, with node 0
// pinned at the origin as the multicast source (the paper positions the
// source at (0,0)).
func Random(n int, side, txRange float64, r *rng.RNG) (*Topology, error) {
	if n < 2 {
		return nil, ErrTooFewNodes
	}
	pts := make([]geom.Point, n)
	pts[0] = geom.Point{X: 0, Y: 0}
	for i := 1; i < n; i++ {
		pts[i] = geom.Point{X: r.Range(0, side), Y: r.Range(0, side)}
	}
	t := &Topology{Positions: pts, Side: side, Range: txRange,
		kind: fmt.Sprintf("random-%d", n)}
	t.buildAdjacency()
	return t, nil
}

// RandomConnected draws random deployments until one is connected, up to
// maxTries attempts. The paper's density (200 nodes, 40 m range, 200 m
// field) is connected with overwhelming probability, so retries are rare.
func RandomConnected(n int, side, txRange float64, r *rng.RNG, maxTries int) (*Topology, error) {
	for try := 0; try < maxTries; try++ {
		t, err := Random(n, side, txRange, r)
		if err != nil {
			return nil, err
		}
		if t.Connected() {
			return t, nil
		}
	}
	return nil, ErrDisconnected
}

// PaperRandom is the random scenario from §V.A: 200 nodes in 200x200 m,
// 40 m range, source pinned at the origin, connectivity guaranteed.
func PaperRandom(r *rng.RNG) (*Topology, error) {
	return RandomConnected(200, 200, 40, r, 100)
}

// ScaledField returns the field edge length that keeps the paper's node
// density (200 nodes in a 200 m x 200 m field) for n nodes: the side grows
// with sqrt(n), so average degree — and with it per-node channel work —
// stays constant as deployments scale to 10k–100k nodes. The generators
// and the adjacency build are grid-indexed (O(n·density)), so topology
// construction at those scales stays linear in n.
func ScaledField(n int) float64 {
	return 200 * math.Sqrt(float64(n)/200)
}

// FromPositions builds a topology from explicit node positions — used for
// crafted scenarios (the paper's Fig. 3 example network, failure-injection
// layouts) and by tests.
func FromPositions(pts []geom.Point, side, txRange float64) (*Topology, error) {
	if len(pts) < 2 {
		return nil, ErrTooFewNodes
	}
	t := &Topology{
		Positions: append([]geom.Point(nil), pts...),
		Side:      side,
		Range:     txRange,
		kind:      fmt.Sprintf("custom-%d", len(pts)),
	}
	t.buildAdjacency()
	return t, nil
}

// buildAdjacency computes the unit-disc graph through a uniform-grid
// spatial index: O(n·density) instead of the old all-pairs O(n²) scan.
// Each neighbor list comes out in ascending index order — the same order
// the naive scan produced — which downstream traversals (DFS tree builds,
// deterministic receiver picks) depend on, and sorts nothing to get it.
// One sweep counts every node's degree, visiting each candidate pair once
// from its lower index, so that every list is carved at its exact
// capacity from one flat slice. A second sweep appends each in-range pair
// to the higher node's list, whose lower neighbours so arrive in
// ascending order; a transpose over those lists, ascending, then appends
// every node's higher neighbours after them, also ascending.
func (t *Topology) buildAdjacency() {
	n := len(t.Positions)
	t.adj = make([][]int, n)
	r2 := t.Range * t.Range
	if !(t.Range > 0) || math.IsInf(t.Range, 1) {
		// Degenerate range: no sensible grid cell; fall back to the scan.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if t.Positions[i].DistSq(t.Positions[j]) <= r2 {
					t.adj[i] = append(t.adj[i], j)
					t.adj[j] = append(t.adj[j], i)
				}
			}
		}
		return
	}
	grid := geom.NewGridIndex(t.Positions, t.Range/2)
	cand := make([]int32, 0, 64)
	deg := make([]int32, n)
	total := 0
	for i, p := range t.Positions {
		cand = grid.CandidatesAbove(p, t.Range, i, cand[:0])
		for _, j := range cand {
			if p.DistSq(t.Positions[j]) <= r2 {
				deg[i]++
				deg[j]++
				total += 2
			}
		}
	}
	flat := make([]int, total)
	off := 0
	for i, k := range deg {
		end := off + int(k)
		t.adj[i] = flat[off:off:end]
		off = end
	}
	for i, p := range t.Positions {
		cand = grid.CandidatesAbove(p, t.Range, i, cand[:0])
		for _, j := range cand {
			if p.DistSq(t.Positions[j]) <= r2 {
				t.adj[j] = append(t.adj[j], i)
			}
		}
	}
	// When the transpose reaches node j, its list holds its lower
	// neighbours only: its higher ones arrive from nodes after j.
	for j, nb := range t.adj {
		for _, i := range nb {
			t.adj[i] = append(t.adj[i], j)
		}
	}
}

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.Positions) }

// Kind returns a short label ("grid-10x10", "random-200") for metadata.
func (t *Topology) Kind() string { return t.kind }

// Neighbors returns the node indices within range of node i. The returned
// slice is shared; callers must not modify it.
func (t *Topology) Neighbors(i int) []int { return t.adj[i] }

// AvgDegree returns the mean node degree.
func (t *Topology) AvgDegree() float64 {
	if t.N() == 0 {
		return 0
	}
	total := 0
	for i := range t.adj {
		total += len(t.adj[i])
	}
	return float64(total) / float64(t.N())
}

// Connected reports whether the deployment graph is connected.
func (t *Topology) Connected() bool {
	n := t.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range t.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// ReachableFrom returns the set of nodes reachable from src as a bool mask.
func (t *Topology) ReachableFrom(src int) []bool {
	seen := make([]bool, t.N())
	stack := []int{src}
	seen[src] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range t.adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// PickReceivers selects k distinct multicast receivers uniformly from the
// nodes other than src that are reachable from src. The paper re-draws
// receivers every Monte-Carlo round.
func (t *Topology) PickReceivers(src, k int, r *rng.RNG) ([]int, error) {
	reach := t.ReachableFrom(src)
	var pool []int
	for i, ok := range reach {
		if ok && i != src {
			pool = append(pool, i)
		}
	}
	if k > len(pool) {
		return nil, fmt.Errorf("topology: requested %d receivers, only %d reachable nodes", k, len(pool))
	}
	idx := r.Sample(len(pool), k)
	out := make([]int, k)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out, nil
}
