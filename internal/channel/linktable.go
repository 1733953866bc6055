package channel

import (
	"math"

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
		params: params,
		n:      len(positions),
		rx:     make([][]link, len(positions)),
		cs:     make([][]link, len(positions)),
	}
	t.fillGrid(positions, geom.NewGridIndex(positions, cs/2), nil)
	return t
}

// fillGrid populates t's per-node link lists from positions through the
// spatial index, reusing each node's existing slice storage. Lists come
// out ascending by destination — Candidates returns ascending indices —
// exactly as the naive all-pairs scan orders them. It returns the
// candidate scratch slice so callers can carry it across fills.
func (t *LinkTable) fillGrid(positions []geom.Point, grid *geom.GridIndex, cand []int) []int {
	rx := t.params.TxRange()
	cs := t.params.CSRange()
	model, txPower := t.params.Model, t.params.TxPower
	for i := range positions {
		t.cs[i] = t.cs[i][:0]
		t.rx[i] = t.rx[i][:0]
		cand = grid.Candidates(positions[i], cs, cand[:0])
		for _, j := range cand {
			if j == i {
				continue
			}
			d := positions[i].Dist(positions[j])
			if d <= cs {
				l := link{
					to:    j,
					delay: sim.Seconds(radio.PropDelay(d)),
					power: model.ReceivedPower(txPower, d),
				}
				t.cs[i] = append(t.cs[i], l)
				if d <= rx {
					t.rx[i] = append(t.rx[i], l)
				}
			}
		}
	}
	return cand
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
		params: params,
		n:      len(positions),
		rx:     make([][]link, len(positions)),
		cs:     make([][]link, len(positions)),
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
