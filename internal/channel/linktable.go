package channel

import (
	"math"
	"slices"

	"mtmrp/internal/geom"
	"mtmrp/internal/radio"
	"mtmrp/internal/sim"
)

// link is a precomputed propagation edge.
type link struct {
	to    int
	delay sim.Time
	power float64 // deterministic received power at this distance (Watts)
}

// LinkTable holds the precomputed propagation edges of one topology under
// one radio configuration: for every node, the delay and received power of
// each link inside the reception disc and inside the carrier-sense disc.
// The table is immutable after construction and safe to share across
// concurrent simulations — build it once per (positions, params) pair and
// pass it to every protocol variant and every run on that topology instead
// of recomputing the O(n·density) edge set per simulation.
type LinkTable struct {
	params radio.Params
	n      int
	rx     [][]link // links within decode range, ascending by destination
	cs     [][]link // links within carrier-sense range (superset of rx)

	// rxRange and csRange are params.TxRange() and params.CSRange(),
	// bisected once at construction instead of on every fill or move.
	rxRange, csRange float64

	// ver[i] counts the edits to node i's lists; a channel keys its cached
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
		rx:      make([][]link, len(positions)),
		cs:      make([][]link, len(positions)),
		rxRange: rx,
		csRange: cs,
	}
	t.fillGrid(positions, geom.NewGridIndex(positions, cs/2), &fillScratch{})
	return t
}

// fillScratch is fillGrid's working storage, kept by a caller that fills
// repeatedly so that a warm fill allocates nothing.
type fillScratch struct {
	cand []int     // grid candidates of the node being filled
	keys []uint64  // its higher neighbours: destination<<32 | index into dist
	dist []float64 // their distances

	// changed[i] reports whether node i's lists came out different from
	// the ones the fill overwrote. A fill rewrites each list in place
	// from its start, so it compares every edge with the one at its
	// position before overwriting it; oldCS and oldRX hold the lengths
	// the lists had before the fill.
	changed      []bool
	oldCS, oldRX []int
}

// add appends l to ls, which is node i's CS or RX list, old holding that
// kind of list's lengths before the fill. It first marks node i changed
// if l is not the edge ls held at that position.
func (sc *fillScratch) add(ls []link, l link, i int, old []int) []link {
	if !sc.changed[i] {
		if k := len(ls); k >= old[i] || ls[:k+1][k] != l {
			sc.changed[i] = true
		}
	}
	return append(ls, l)
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
		sc.oldCS = make([]int, n)
		sc.oldRX = make([]int, n)
	}
	for i := range positions {
		sc.changed[i] = false
		sc.oldCS[i], sc.oldRX[i] = len(t.cs[i]), len(t.rx[i])
		t.cs[i] = t.cs[i][:0]
		t.rx[i] = t.rx[i][:0]
	}
	for i, p := range positions {
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
		slices.Sort(keys)
		for _, key := range keys {
			j, d := int(key>>32), dist[uint32(key)]
			delay := sim.Seconds(radio.PropDelay(d))
			power := model.ReceivedPower(txPower, d)
			fwd := link{to: j, delay: delay, power: power}
			rev := link{to: i, delay: delay, power: power}
			t.cs[i] = sc.add(t.cs[i], fwd, i, sc.oldCS)
			t.cs[j] = sc.add(t.cs[j], rev, j, sc.oldCS)
			if d <= rx {
				t.rx[i] = sc.add(t.rx[i], fwd, i, sc.oldRX)
				t.rx[j] = sc.add(t.rx[j], rev, j, sc.oldRX)
			}
		}
		sc.keys, sc.dist = keys, dist
	}
	for i := range positions {
		if len(t.cs[i]) != sc.oldCS[i] || len(t.rx[i]) != sc.oldRX[i] {
			sc.changed[i] = true
		}
	}
}

// newLinkTableNaive is the reference O(n²) builder. It backs degenerate
// radio configurations and the grid/naive equivalence test.
func newLinkTableNaive(positions []geom.Point, params radio.Params) *LinkTable {
	rx := params.TxRange()
	cs := params.CSRange()
	if cs < rx {
		panic("channel: carrier-sense range smaller than reception range")
	}
	t := &LinkTable{
		params:  params,
		n:       len(positions),
		rx:      make([][]link, len(positions)),
		cs:      make([][]link, len(positions)),
		rxRange: rx,
		csRange: cs,
	}
	for i := range positions {
		for j := range positions {
			if i == j {
				continue
			}
			d := positions[i].Dist(positions[j])
			if d <= cs {
				l := link{
					to:    j,
					delay: sim.Seconds(radio.PropDelay(d)),
					power: params.Model.ReceivedPower(params.TxPower, d),
				}
				t.cs[i] = append(t.cs[i], l)
				if d <= rx {
					t.rx[i] = append(t.rx[i], l)
				}
			}
		}
	}
	return t
}

// version returns the edit count of node i's link lists: always 0 on a
// static table, bumped by every DynamicLinkTable edit to cs[i] or rx[i].
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
