package channel

import (
	"fmt"
	"math"
	"slices"

	"mtmrp/internal/geom"
	"mtmrp/internal/radio"
	"mtmrp/internal/sim"
)

// link is one precomputed carrier-sense edge, packed into 16 bytes: a
// 10k-node table holds over a million of them.
type link struct {
	dst     uint32  // destination node, with rxFlag set inside decode range
	delayNS int32   // propagation delay in ns
	power   float64 // deterministic received power at this distance (Watts)
}

// rxFlag marks a link whose destination lies inside the reception disc.
// It takes the top bit of link.dst, so node ids stay below 1<<31.
const rxFlag = 1 << 31

// makeLink packs the edge to node to. It panics on a delay that does not
// fit 31 bits (over 2 s of propagation, far beyond any carrier disc).
func makeLink(to int, inRX bool, delay sim.Time, power float64) link {
	if delay > math.MaxInt32 {
		panic(fmt.Sprintf("channel: propagation delay %v does not fit a link", delay))
	}
	dst := uint32(to)
	if inRX {
		dst |= rxFlag
	}
	return link{dst: dst, delayNS: int32(delay), power: power}
}

// to returns the link's destination node.
func (l link) to() int { return int(l.dst &^ rxFlag) }

// rx reports whether the destination lies inside the reception disc.
func (l link) rx() bool { return l.dst&rxFlag != 0 }

// delay returns the link's propagation delay.
func (l link) delay() sim.Time { return sim.Time(l.delayNS) }

// LinkTable holds the precomputed propagation edges of one topology under
// one radio configuration: for every node, the delay and received power of
// each link inside the carrier-sense disc, each flagged when it also lies
// inside the reception disc. The table is immutable after construction and
// safe to share across concurrent simulations — build it once per
// (positions, params) pair and pass it to every protocol variant and every
// run on that topology instead of recomputing the O(n·density) edge set
// per simulation.
//
// Every node's list is carved, at its exact length and capacity, from one
// flat slice: a build makes a constant number of allocations however many
// nodes it covers. A DynamicLinkTable edit that outgrows a node's run
// moves that list to its own allocation; the capacity bound keeps it from
// writing into the next node's run.
type LinkTable struct {
	params radio.Params
	n      int
	cs     [][]link // links within carrier-sense range, ascending by destination

	// rxRange and csRange are params.TxRange() and params.CSRange(),
	// bisected once at construction instead of on every fill or move.
	rxRange, csRange float64

	// ver[i] counts the edits to node i's list; a channel keys its cached
	// fan order on it. Nil on a static table, whose lists never change.
	ver []uint64
}

// NewLinkTable precomputes the link table for the given node positions and
// radio parameters. Construction uses a uniform-grid spatial index, so the
// cost is O(n·density) rather than O(n²); the per-node link lists come out
// in ascending destination order, exactly as a naive all-pairs scan would
// produce them. It panics if the carrier-sense range is smaller than the
// reception range.
func NewLinkTable(positions []geom.Point, params radio.Params) *LinkTable {
	rx := params.TxRange()
	cs := params.CSRange()
	if cs < rx {
		panic("channel: carrier-sense range smaller than reception range")
	}
	if !(cs > 0) || math.IsInf(cs, 1) {
		// Degenerate radio (no range, or an unbounded disc): the grid cell
		// size has no sensible value, so fall back to the exhaustive scan.
		return newLinkTableNaive(positions, params)
	}
	t := &LinkTable{
		params:  params,
		n:       len(positions),
		rxRange: rx,
		csRange: cs,
	}
	grid := geom.NewGridIndex(positions, cs/2)
	// Room for a dense neighbourhood up front, so the scratch does not
	// grow through append's doubling steps during the build.
	sc := &fillScratch{
		cand: make([]int, 0, 256),
		keys: make([]uint64, 0, 128),
		dist: make([]float64, 0, 128),
	}
	t.carve(positions, grid, sc)
	t.fillGrid(positions, grid, sc)
	return t
}

// fillScratch is fillGrid's working storage, kept by a caller that fills
// repeatedly so that a warm fill allocates nothing.
type fillScratch struct {
	cand []int     // grid candidates of the node being filled
	keys []uint64  // its higher neighbours: destination<<32 | index into dist
	dist []float64 // their distances

	// changed[i] reports whether node i's list came out different from
	// the one the fill overwrote. A fill rewrites each list in place from
	// its start, so it compares every edge with the one at its position
	// before overwriting it; old holds the lengths the lists had before
	// the fill.
	changed []bool
	old     []int32
}

// higher collects node i's higher-indexed neighbours inside the
// carrier-sense disc into sc.keys and sc.dist, in the grid's bucket order.
func (sc *fillScratch) higher(i int, positions []geom.Point, grid *geom.GridIndex, cs float64) {
	p := positions[i]
	sc.cand = grid.CandidatesUnsorted(p, cs, sc.cand[:0])
	keys, dist := sc.keys[:0], sc.dist[:0]
	for _, j := range sc.cand {
		if j <= i {
			continue
		}
		if d := p.Dist(positions[j]); d <= cs {
			keys = append(keys, uint64(j)<<32|uint64(len(dist)))
			dist = append(dist, d)
		}
	}
	sc.keys, sc.dist = keys, dist
}

// add appends l to node i's list ls, first marking node i changed if l is
// not the edge ls held at that position.
func (sc *fillScratch) add(ls []link, l link, i int) []link {
	if !sc.changed[i] {
		if k := len(ls); k >= int(sc.old[i]) || ls[:k+1][k] != l {
			sc.changed[i] = true
		}
	}
	return append(ls, l)
}

// carve gives every node an empty list whose capacity is its exact
// carrier-sense degree, all cut from one flat slice. The degrees come
// from the same grid candidates and distance test fillGrid then fills
// the lists from, so the fill never reallocates.
func (t *LinkTable) carve(positions []geom.Point, grid *geom.GridIndex, sc *fillScratch) {
	deg := make([]int32, len(positions))
	total := 0
	for i := range positions {
		sc.higher(i, positions, grid, t.csRange)
		deg[i] += int32(len(sc.keys))
		for _, key := range sc.keys {
			deg[key>>32]++
		}
		total += 2 * len(sc.keys)
	}
	flat := make([]link, total)
	t.cs = make([][]link, len(positions))
	off := 0
	for i, k := range deg {
		end := off + int(k)
		t.cs[i] = flat[off:off:end]
		off = end
	}
}

// fillGrid populates t's per-node link lists from positions through the
// spatial index, reusing each node's existing slice storage. It computes
// each pair once, from its lower index, and appends the edge to both
// lists: node j receives its lower neighbours in ascending order (the
// outer loop ascends) before its own turn appends the higher ones, which
// that turn sorts first, since the grid hands candidates over in bucket
// order. So every list comes out ascending by destination, exactly as the
// naive all-pairs scan orders it, and because Dist is bitwise symmetric
// both directions carry the delay and power that scan computes for each.
// It reports in sc.changed which nodes' lists differ from the ones it
// overwrote.
func (t *LinkTable) fillGrid(positions []geom.Point, grid *geom.GridIndex, sc *fillScratch) {
	rx, cs := t.rxRange, t.csRange
	model, txPower := t.params.Model, t.params.TxPower
	if n := len(positions); len(sc.changed) != n {
		sc.changed = make([]bool, n)
		sc.old = make([]int32, n)
	}
	for i := range positions {
		sc.changed[i] = false
		sc.old[i] = int32(len(t.cs[i]))
		t.cs[i] = t.cs[i][:0]
	}
	for i := range positions {
		sc.higher(i, positions, grid, cs)
		slices.Sort(sc.keys)
		for _, key := range sc.keys {
			j, d := int(key>>32), sc.dist[uint32(key)]
			delay := sim.Seconds(radio.PropDelay(d))
			power := model.ReceivedPower(txPower, d)
			inRX := d <= rx
			t.cs[i] = sc.add(t.cs[i], makeLink(j, inRX, delay, power), i)
			t.cs[j] = sc.add(t.cs[j], makeLink(i, inRX, delay, power), j)
		}
	}
	for i := range positions {
		if int32(len(t.cs[i])) != sc.old[i] {
			sc.changed[i] = true
		}
	}
}

// newLinkTableNaive is the reference O(n²) builder. It backs degenerate
// radio configurations and the grid/naive equivalence test, and lays the
// lists out as NewLinkTable does: consecutive exact-capacity runs of one
// flat slice.
func newLinkTableNaive(positions []geom.Point, params radio.Params) *LinkTable {
	rx := params.TxRange()
	cs := params.CSRange()
	if cs < rx {
		panic("channel: carrier-sense range smaller than reception range")
	}
	t := &LinkTable{
		params:  params,
		n:       len(positions),
		cs:      make([][]link, len(positions)),
		rxRange: rx,
		csRange: cs,
	}
	var flat []link
	ends := make([]int, len(positions))
	for i := range positions {
		for j := range positions {
			if i == j {
				continue
			}
			d := positions[i].Dist(positions[j])
			if d <= cs {
				delay := sim.Seconds(radio.PropDelay(d))
				power := params.Model.ReceivedPower(params.TxPower, d)
				flat = append(flat, makeLink(j, d <= rx, delay, power))
			}
		}
		ends[i] = len(flat)
	}
	start := 0
	for i, end := range ends {
		t.cs[i] = flat[start:end:end]
		start = end
	}
	return t
}

// version returns the edit count of node i's link lists: always 0 on a
// static table, bumped by every DynamicLinkTable edit to cs[i].
func (t *LinkTable) version(i int) uint64 {
	if t.ver == nil {
		return 0
	}
	return t.ver[i]
}

// N returns the number of nodes the table was built for.
func (t *LinkTable) N() int { return t.n }

// Params returns the radio parameters the table was built with.
func (t *LinkTable) Params() radio.Params { return t.params }
