// Package graph provides the graph algorithms the reproduction needs:
// breadth-first search, connectivity, minimum spanning trees,
// metric closure, and validation helpers for multicast forwarder sets.
//
// The centralized multicast-tree heuristics that use these primitives live
// in internal/centralized; this package is protocol-agnostic.
package graph

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

// Graph is a simple undirected graph on vertices 0..n-1 with optional
// per-edge weights. The zero value is an empty graph; use New.
type Graph struct {
	n   int
	adj [][]Edge
}

// Edge is a directed half-edge stored in an adjacency list.
type Edge struct {
	To     int
	Weight float64
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// FromAdjacency builds an unweighted graph (all weights 1) from adjacency
// lists, e.g. topology.Topology neighbors. Symmetry is the caller's
// responsibility; edges are inserted exactly as given.
func FromAdjacency(adj [][]int) *Graph {
	g := New(len(adj))
	for u, ns := range adj {
		for _, v := range ns {
			g.adj[u] = append(g.adj[u], Edge{To: v, Weight: 1})
		}
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts an undirected edge u-v with weight w.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, g.n))
	}
	if u == v {
		panic("graph: self-loop")
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], Edge{To: u, Weight: w})
}

// Neighbors returns u's adjacency list (shared; do not modify).
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// Unreachable marks vertices BFS could not reach.
const Unreachable = -1

// BFS returns hop distances and BFS-tree parents from src. Unreachable
// vertices get dist = Unreachable and parent = Unreachable.
func (g *Graph) BFS(src int) (dist, parent []int) {
	dist = make([]int, g.n)
	parent = make([]int, g.n)
	for i := range dist {
		dist[i] = Unreachable
		parent[i] = Unreachable
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[u] {
			if dist[e.To] == Unreachable {
				dist[e.To] = dist[u] + 1
				parent[e.To] = u
				queue = append(queue, e.To)
			}
		}
	}
	return dist, parent
}

// WEdge is an explicit weighted edge, used by MST and tree results.
type WEdge struct {
	U, V   int
	Weight float64
}

// ErrDisconnected reports that a spanning structure does not exist.
var ErrDisconnected = errors.New("graph: disconnected")

// MST returns a minimum spanning tree (Prim's algorithm) of the component
// containing vertex 0 restricted to the whole graph; it returns
// ErrDisconnected if the graph is not connected.
func (g *Graph) MST() ([]WEdge, error) {
	if g.n == 0 {
		return nil, nil
	}
	inTree := make([]bool, g.n)
	best := make([]float64, g.n)
	bestEdge := make([]int, g.n)
	for i := range best {
		best[i] = math.Inf(1)
		bestEdge[i] = Unreachable
	}
	best[0] = 0
	pq := &distHeap{{v: 0, d: 0}}
	var edges []WEdge
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		u := item.v
		if inTree[u] {
			continue
		}
		inTree[u] = true
		if bestEdge[u] != Unreachable {
			edges = append(edges, WEdge{U: bestEdge[u], V: u, Weight: best[u]})
		}
		for _, e := range g.adj[u] {
			if !inTree[e.To] && e.Weight < best[e.To] {
				best[e.To] = e.Weight
				bestEdge[e.To] = u
				heap.Push(pq, distItem{v: e.To, d: e.Weight})
			}
		}
	}
	if len(edges) != g.n-1 {
		return nil, ErrDisconnected
	}
	return edges, nil
}

// distItem is a vertex keyed by the weight of its best edge into the tree.
type distItem struct {
	v int
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// PathTo reconstructs the path src -> v from a parent array produced by
// BFS rooted at src. Returns nil if v is unreachable.
func PathTo(parent []int, src, v int) []int {
	if v == src {
		return []int{src}
	}
	if parent[v] == Unreachable {
		return nil
	}
	var rev []int
	for cur := v; cur != Unreachable; cur = parent[cur] {
		rev = append(rev, cur)
		if cur == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	// reverse
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// CoversReceivers verifies that broadcasting from src, relayed only by the
// given forwarder set (plus src), reaches every receiver. This is the
// correctness invariant every multicast protocol in this repo must satisfy,
// and the property-based tests lean on it heavily.
func (g *Graph) CoversReceivers(src int, forwarders map[int]bool, receivers []int) bool {
	reached := make([]bool, g.n)
	reached[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		// u transmits if it is the source or a forwarder.
		if u != src && !forwarders[u] {
			continue
		}
		for _, e := range g.adj[u] {
			if !reached[e.To] {
				reached[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	for _, r := range receivers {
		if !reached[r] {
			return false
		}
	}
	return true
}

// TransmissionCount returns the number of transmissions a broadcast from
// src relayed by the forwarder set makes: the source plus each forwarder
// that actually receives the packet.
func (g *Graph) TransmissionCount(src int, forwarders map[int]bool) int {
	reached := make([]bool, g.n)
	reached[src] = true
	queue := []int{src}
	count := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u != src && !forwarders[u] {
			continue
		}
		count++
		for _, e := range g.adj[u] {
			if !reached[e.To] {
				reached[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return count
}
