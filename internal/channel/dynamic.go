package channel

import (
	"fmt"
	"math"
	"sort"

	"mtmrp/internal/geom"
	"mtmrp/internal/radio"
	"mtmrp/internal/sim"
)

// DynamicLinkTable owns a LinkTable whose node positions change during a
// run. Where the static table is built once and shared immutably, the
// dynamic table keeps a private position array and a mutable GridIndex
// and offers two edits:
//
//   - MoveAll is the motion tick: it re-buckets every node that moved and
//     refills the whole table through fillGrid, the fill NewLinkTable and
//     Rebind use, computing each pair's distance once. A tick in which
//     (nearly) every node moves costs one build, and build, rebind and
//     motion share one path.
//   - Move relocates a single node and recomputes only its incident
//     edges: the grid re-buckets the node, its own list is rebuilt from
//     the grid's candidates, and each neighbor's reverse edge (decode-range
//     flag included) is overwritten in place, inserted or removed —
//     O(density) work per move, independent of the total node count.
//
// Both edits write into each node's existing list storage. The lists
// start as the exact-capacity runs NewLinkTable carves from one flat
// slice; a list that outgrows its run moves to its own allocation and
// keeps it, so later ticks reuse it too.
//
// An edit bumps the version of every node whose list it edits, which
// invalidates the channel's cached fan order for that node; MoveAll bumps
// only the nodes whose lists came out different.
//
// The channel reads the table's per-node link lists at transmit time, so
// mutations are consumed mid-run with no further plumbing: a frame put on
// the air after a move propagates over the moved topology, while frames
// already in flight keep the delay they were launched with — exactly the
// physical semantics. Both edits are bit-identical to a full NewLinkTable
// rebuild over the moved positions (the differential tests in
// dynamic_test.go pin this), because edge values are pure functions of
// the symmetric pairwise distance and every path orders lists ascending
// by destination.
//
// A DynamicLinkTable is single-goroutine, like the simulation that owns
// it. Sessions must never hand the shared static table of a sweep to a
// mobile run; they build (or Rebind) their own dynamic table instead.
type DynamicLinkTable struct {
	t         LinkTable
	positions []geom.Point
	grid      *geom.GridIndex
	scratch   fillScratch // fill and grid-query scratch

	// Move swaps the mover's list with this spare, so it can rebuild it
	// while it still reads the old one.
	spare []link
}

// NewDynamicLinkTable builds a dynamic table over the starting positions.
// It panics on degenerate radio parameters (zero or unbounded range): a
// mutable grid needs a finite cell size, and no mobility study runs on a
// radio without one.
func NewDynamicLinkTable(positions []geom.Point, params radio.Params) *DynamicLinkTable {
	rx := params.TxRange()
	cs := params.CSRange()
	if cs < rx {
		panic("channel: carrier-sense range smaller than reception range")
	}
	if !(cs > 0) || math.IsInf(cs, 1) {
		panic("channel: dynamic link table requires a positive, finite carrier-sense range")
	}
	d := &DynamicLinkTable{t: LinkTable{params: params, rxRange: rx, csRange: cs}}
	d.Rebind(positions)
	return d
}

// Rebind rewinds the table to a fresh build over the given starting
// positions, reusing the per-node list storage when the node count is
// unchanged and carving it afresh otherwise. Session.Reset calls it so a
// pooled mobile session starts every run from the same state a fresh
// NewDynamicLinkTable would produce.
func (d *DynamicLinkTable) Rebind(positions []geom.Point) {
	n := len(positions)
	d.t.n = n
	if cap(d.positions) < n {
		d.positions = make([]geom.Point, n)
	}
	d.positions = d.positions[:n]
	copy(d.positions, positions)
	d.grid = geom.NewGridIndex(d.positions, d.t.csRange/2)
	if len(d.t.cs) != n {
		d.t.ver = make([]uint64, n)
		d.t.carve(d.positions, d.grid, &d.scratch)
	}
	for i := range d.t.ver {
		d.t.ver[i]++
	}
	d.t.fillGrid(d.positions, d.grid, &d.scratch)
}

// Table returns the live link table. The pointer stays valid across moves
// and Rebinds — the channel holds it for the whole session.
func (d *DynamicLinkTable) Table() *LinkTable { return &d.t }

// N returns the node count.
func (d *DynamicLinkTable) N() int { return d.t.n }

// Position returns node i's current position.
func (d *DynamicLinkTable) Position(i int) geom.Point { return d.positions[i] }

// MoveAll relocates every node i to ps[i] — one motion tick — and
// refills the whole table over the new positions. Nodes whose position is
// unchanged are not re-bucketed, and a tick in which no node moved returns
// at once. The refill runs through fillGrid, which compares each node's
// new list with the one it overwrites: only a node whose list came out
// different has its version bumped, and an unchanged node keeps
// its cached fan order. Once every list's storage has reached its
// high-water mark, a tick allocates nothing.
func (d *DynamicLinkTable) MoveAll(ps []geom.Point) {
	if len(ps) != d.t.n {
		panic(fmt.Sprintf("channel: MoveAll got %d positions for %d nodes", len(ps), d.t.n))
	}
	moved := false
	for i, p := range ps {
		if p != d.positions[i] {
			d.positions[i] = p
			d.grid.Move(i, p)
			moved = true
		}
	}
	if !moved {
		return
	}
	d.t.fillGrid(d.positions, d.grid, &d.scratch)
	for i, changed := range d.scratch.changed {
		if changed {
			d.t.ver[i]++
		}
	}
}

// Move relocates node i to p and incrementally updates every edge
// incident to it. The carrier-sense disc is symmetric, so cs[i] lists
// exactly the nodes holding a reverse edge back to i — no scan over the
// other n-1 nodes is ever needed. Node i's list is rebuilt from the grid;
// the old and new lists, both ascending by destination, are then
// merge-walked so a neighbor that stays inside the CS disc has its
// reverse edge (and decode-range flag) overwritten in place, and only
// neighbors that left or arrived pay a list insert or remove.
func (d *DynamicLinkTable) Move(i int, p geom.Point) {
	if p == d.positions[i] {
		return
	}
	t := &d.t
	old := t.cs[i]
	t.cs[i] = d.spare[:0]
	d.positions[i] = p
	d.grid.Move(i, p)
	rx, cs := t.rxRange, t.csRange
	model, txPower := t.params.Model, t.params.TxPower
	t.ver[i]++
	oc := 0 // cursor into old
	d.scratch.cand = d.grid.Candidates(p, cs, d.scratch.cand[:0])
	for _, j := range d.scratch.cand {
		if j == i {
			continue
		}
		// Dist is symmetric bitwise (Hypot of the differences), so the
		// forward and reverse edges carry identical delay and power — the
		// same values a from-scratch rebuild computes for both directions.
		dist := p.Dist(d.positions[j])
		if dist > cs {
			continue
		}
		for ; oc < len(old) && old[oc].to() < j; oc++ {
			d.unlink(old[oc].to(), i)
		}
		delay := sim.Seconds(radio.PropDelay(dist))
		power := model.ReceivedPower(txPower, dist)
		inRX := dist <= rx
		t.cs[i] = append(t.cs[i], makeLink(j, inRX, delay, power))
		rev := makeLink(i, inRX, delay, power)
		t.ver[j]++
		if oc < len(old) && old[oc].to() == j {
			// Still inside the CS disc: edit the reverse edge in place.
			setLinkTo(t.cs[j], rev)
			oc++
		} else {
			t.cs[j] = insertLinkTo(t.cs[j], rev)
		}
	}
	for ; oc < len(old); oc++ {
		d.unlink(old[oc].to(), i)
	}
	d.spare = old
}

// unlink removes node j's reverse edge back to i, which has left j's
// carrier-sense disc.
func (d *DynamicLinkTable) unlink(j, i int) {
	d.t.ver[j]++
	d.t.cs[j] = removeLinkTo(d.t.cs[j], i)
}

// searchLinkTo returns the index of the first edge in ls, a list
// ascending by destination, whose destination is at least to.
func searchLinkTo(ls []link, to int) int {
	return sort.Search(len(ls), func(k int) bool { return ls[k].to() >= to })
}

// setLinkTo overwrites the edge to l.to() in a list ascending by
// destination.
func setLinkTo(ls []link, l link) {
	i := searchLinkTo(ls, l.to())
	if i >= len(ls) || ls[i].to() != l.to() {
		panic(fmt.Sprintf("channel: dynamic link table missing reverse edge to %d", l.to()))
	}
	ls[i] = l
}

// removeLinkTo deletes the edge to the given destination from a list
// ascending by destination, preserving order.
func removeLinkTo(ls []link, to int) []link {
	i := searchLinkTo(ls, to)
	if i >= len(ls) || ls[i].to() != to {
		panic(fmt.Sprintf("channel: dynamic link table missing reverse edge to %d", to))
	}
	copy(ls[i:], ls[i+1:])
	return ls[:len(ls)-1]
}

// insertLinkTo inserts l into a list ascending by destination. A list at
// the capacity of its carved run moves to its own allocation.
func insertLinkTo(ls []link, l link) []link {
	i := searchLinkTo(ls, l.to())
	if i < len(ls) && ls[i].to() == l.to() {
		panic(fmt.Sprintf("channel: dynamic link table duplicate edge to %d", l.to()))
	}
	ls = append(ls, link{})
	copy(ls[i+1:], ls[i:])
	ls[i] = l
	return ls
}
