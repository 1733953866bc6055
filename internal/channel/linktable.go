package channel

import (
	"fmt"
	"math"

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

// reverse returns the edge back from l's destination to node from: the
// same decode-range flag, delay and power.
func (l link) reverse(from int) link {
	return link{dst: uint32(from) | l.dst&rxFlag, delayNS: l.delayNS, power: l.power}
}

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
	sc := &fillScratch{cand: make([]int32, 0, 256)}
	t.carve(positions, grid, sc)
	t.fill(positions, grid, sc)
	return t
}

// sqBand is the relative half-width of the band around r² in which the
// build decides disc membership by Dist rather than DistSq. DistSq and
// Dist (math.Hypot) each come within a few ulps (~1e-15, relative) of
// their exact values, so a pair outside the band compares with the
// radius alike under both.
const sqBand = 1e-9

// sqBounds returns the squared distances lo and hi around r²: a pair with
// DistSq <= lo lies inside the disc of radius r (Dist <= r), a pair with
// DistSq > hi outside it, and a pair in between needs Dist. A radius
// outside [1e-100, 1e100] leaves r² at the edge of the float range, so
// there every pair needs Dist.
func sqBounds(r float64) (lo, hi float64) {
	if r < 1e-100 || r > 1e100 {
		return math.Inf(-1), math.Inf(1)
	}
	return r * r * (1 - sqBand), r * r * (1 + sqBand)
}

// fillScratch is fill's working storage, kept by a caller that fills
// repeatedly so that a warm fill allocates nothing.
type fillScratch struct {
	cand []int32 // grid candidates of the node being filled

	// changed[i] reports whether node i's list came out different from
	// the one the fill overwrote. A fill rewrites each list in place from
	// its start, so it compares every edge with the one at its position
	// before overwriting it; old holds the lengths the lists had before
	// the fill.
	changed []bool
	old     []int32
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
// carrier-sense degree, all cut from one flat slice. One sweep over the
// grid visits each candidate pair once, from its lower index, and counts
// it when it lies inside the carrier-sense disc. It tests DistSq and
// calls Dist only inside sqBounds' band, so it decides membership exactly
// as fill's Dist <= cs does, and the fill never reallocates.
func (t *LinkTable) carve(positions []geom.Point, grid *geom.GridIndex, sc *fillScratch) {
	cs := t.csRange
	lo, hi := sqBounds(cs)
	deg := make([]int32, len(positions))
	total := 0
	for i, p := range positions {
		sc.cand = grid.CandidatesAbove(p, cs, i, sc.cand[:0])
		for _, j := range sc.cand {
			q := positions[j]
			if d2 := p.DistSq(q); d2 <= lo || d2 <= hi && p.Dist(q) <= cs {
				deg[i]++
				deg[j]++
				total += 2
			}
		}
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

// fill populates t's per-node link lists from positions through the
// spatial index, reusing each node's existing slice storage, and sorts
// nothing. Its first pass computes each pair inside the carrier-sense
// disc once, from its lower index i, and appends the edge to i to the
// higher node's list: the outer loop ascends, so every list receives its
// lower neighbours in ascending order. A transpose then walks the lists
// in ascending order and appends each edge's reverse to the list of the
// node it names, which so receives its higher neighbours in ascending
// order after its lower ones. Every list thus comes out ascending by
// destination, exactly as the naive all-pairs scan orders it, and
// because Dist is bitwise symmetric both directions carry the delay and
// power that scan computes for each. It reports in sc.changed which
// nodes' lists differ from the ones it overwrote.
func (t *LinkTable) fill(positions []geom.Point, grid *geom.GridIndex, sc *fillScratch) {
	rx, cs := t.rxRange, t.csRange
	_, hi := sqBounds(cs)
	model, txPower := t.params.Model, t.params.TxPower
	if n := len(positions); len(sc.changed) != n {
		sc.changed = make([]bool, n)
		sc.old = make([]int32, n)
	}
	for i := range t.cs {
		sc.changed[i] = false
		sc.old[i] = int32(len(t.cs[i]))
		t.cs[i] = t.cs[i][:0]
	}
	for i, p := range positions {
		sc.cand = grid.CandidatesAbove(p, cs, i, sc.cand[:0])
		for _, j := range sc.cand {
			q := positions[j]
			if !(p.DistSq(q) <= hi) {
				continue
			}
			if d := p.Dist(q); d <= cs {
				delay := sim.Seconds(radio.PropDelay(d))
				power := model.ReceivedPower(txPower, d)
				t.cs[j] = sc.add(t.cs[j], makeLink(i, d <= rx, delay, power), int(j))
			}
		}
	}
	// When the transpose reaches node j, its list holds its lower
	// neighbours only: its higher ones arrive from nodes after j.
	for j, ls := range t.cs {
		for _, l := range ls {
			i := l.to()
			t.cs[i] = sc.add(t.cs[i], l.reverse(j), i)
		}
	}
	for i, ls := range t.cs {
		if int32(len(ls)) != sc.old[i] {
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

// RXDegree returns the number of nodes inside node i's reception disc:
// those that decode node i's frames, and whose frames node i decodes,
// without shadowing.
func (t *LinkTable) RXDegree(i int) int {
	n := 0
	for _, l := range t.cs[i] {
		if l.rx() {
			n++
		}
	}
	return n
}

// N returns the number of nodes the table was built for.
func (t *LinkTable) N() int { return t.n }

// Params returns the radio parameters the table was built with.
func (t *LinkTable) Params() radio.Params { return t.params }
