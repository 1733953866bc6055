package channel

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"mtmrp/internal/geom"
	"mtmrp/internal/radio"
	"mtmrp/internal/rng"
)

// linksEqual compares two link tables edge by edge, decode-range flags
// included, treating a nil list and an empty list as equal.
func linksEqual(a, b *LinkTable) error {
	if a.n != b.n {
		return fmt.Errorf("node count %d vs %d", a.n, b.n)
	}
	for i := range a.cs {
		x, y := a.cs[i], b.cs[i]
		if len(x) != len(y) {
			return fmt.Errorf("cs[%d]: %d links vs %d", i, len(x), len(y))
		}
		for k := range x {
			if x[k] != y[k] {
				return fmt.Errorf("cs[%d][%d]: %v vs %v", i, k, x[k], y[k])
			}
		}
	}
	return nil
}

func (l link) String() string {
	return fmt.Sprintf("{to %d rx %v delay %v power %g}", l.to(), l.rx(), l.delay(), l.power)
}

// Move kinds for the differentials. A teleport keeps no neighbor; a
// step (±0.5–2 m per axis: one 100 ms mobility tick at 5–20 m/s) keeps
// almost all of them, so their reverse edges are edited in place; an RX
// hop crosses one neighbor's decode radius while staying inside its
// carrier-sense disc, so that neighbor's reverse edge flips its
// decode-range flag.
const (
	teleport = iota
	step
	rxHop
	moveKinds
)

// drawMove draws the target of one move of node id. Teleports land
// anywhere in [lo, hi)².
func drawMove(r *rng.RNG, dyn *DynamicLinkTable, id, kind int, lo, hi float64) geom.Point {
	p := dyn.Position(id)
	switch kind {
	case step:
		axis := func() float64 {
			d := r.Range(0.5, 2)
			if r.Bool(0.5) {
				return -d
			}
			return d
		}
		return geom.Point{X: p.X + axis(), Y: p.Y + axis()}
	case rxHop:
		cs := dyn.t.cs[id]
		if len(cs) == 0 {
			break
		}
		j := cs[r.Intn(len(cs))].to()
		q := dyn.Position(j)
		dir := p.Sub(q)
		if n := dir.Norm(); n > 0 {
			dir = dir.Scale(1 / n)
		} else {
			dir = geom.Point{X: 1}
		}
		rx := dyn.t.params.TxRange()
		d := rx + r.Range(0.1, 1)
		if p.Dist(q) > rx {
			d = rx - r.Range(0.1, 1)
		}
		return q.Add(dir.Scale(d))
	}
	return geom.Point{X: r.Range(lo, hi), Y: r.Range(lo, hi)}
}

// moveCoverage counts what one move did to the mover's neighbors, so the
// differentials can assert that every path of Move ran.
type moveCoverage struct {
	kept, rxFlips, exits, arrivals int
}

func (c *moveCoverage) add(dyn *DynamicLinkTable, id int, p geom.Point) {
	before := map[int]bool{} // CS neighbor -> in RX
	for _, l := range dyn.t.cs[id] {
		before[l.to()] = l.rx()
	}
	dyn.Move(id, p)
	for _, l := range dyn.t.cs[id] {
		wasRX, kept := before[l.to()]
		switch {
		case !kept:
			c.arrivals++
		case wasRX != l.rx():
			c.rxFlips++
		default:
			c.kept++
		}
		delete(before, l.to())
	}
	c.exits += len(before)
}

func (c moveCoverage) complete() bool {
	return c.kept > 0 && c.rxFlips > 0 && c.exits > 0 && c.arrivals > 0
}

// TestDynamicLinkTableMatchesRebuild is the incremental-update proof
// obligation: after every move in a random sequence of teleports, small
// steps and RX hops, the dynamic table must equal — edge for edge, bit
// for bit — a LinkTable rebuilt from scratch over the current positions.
func TestDynamicLinkTableMatchesRebuild(t *testing.T) {
	params := radio.MustDefault80211Params(40, 2.2)
	r := rng.New(3)
	side := 120.0
	pts := make([]geom.Point, 60)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, side), Y: r.Range(0, side)}
	}
	dyn := NewDynamicLinkTable(pts, params)
	if err := linksEqual(dyn.Table(), NewLinkTable(pts, params)); err != nil {
		t.Fatalf("initial build: %v", err)
	}
	var cov [moveKinds]moveCoverage
	for m := 0; m < 1200; m++ {
		id, kind := r.Intn(len(pts)), m%moveKinds
		// A quarter of the teleports leave the original field, exercising
		// the grid's clamped border cells.
		p := drawMove(r, dyn, id, kind, -side/3, 4*side/3)
		pts[id] = p
		cov[kind].add(dyn, id, p)
		if err := linksEqual(dyn.Table(), NewLinkTable(pts, params)); err != nil {
			t.Fatalf("after move %d (kind %d, node %d to %v): %v", m, kind, id, p, err)
		}
	}
	t.Logf("teleports %+v, steps %+v, RX hops %+v", cov[teleport], cov[step], cov[rxHop])
	if !cov[step].complete() || cov[rxHop].rxFlips == 0 {
		t.Errorf("moves missed a path of Move: steps %+v, RX hops %+v", cov[step], cov[rxHop])
	}
}

// TestCarvedRunsSpillOnMove is the carving differential. A dynamic table
// starts with every list carved at its exact length from one flat slice.
// Moving sparse-field nodes one by one into a dense cluster grows the
// cluster's lists past their runs, so they must move to their own
// storage without writing into the runs next to them; after every move,
// and after a MoveAll tick back to the start and a Rebind, each list
// must equal a fresh NewLinkTable rebuild, decode-range flags included.
func TestCarvedRunsSpillOnMove(t *testing.T) {
	params := radio.MustDefault80211Params(40, 2.2)
	r := rng.New(11)
	const clustered = 40
	start := randomField(120, 400, r)
	for i := range clustered {
		start[i] = geom.Point{X: 200 + r.Range(-15, 15), Y: 200 + r.Range(-15, 15)}
	}
	pts := slices.Clone(start)
	dyn := NewDynamicLinkTable(pts, params)
	if err := carvedFlat(dyn.Table()); err != nil {
		t.Fatalf("initial build: %v", err)
	}
	spilled := 0
	for id := clustered; id < clustered+10; id++ {
		caps := make([]int, len(pts))
		for j, ls := range dyn.t.cs {
			caps[j] = cap(ls)
		}
		p := geom.Point{X: 200 + r.Range(-5, 5), Y: 200 + r.Range(-5, 5)}
		dyn.Move(id, p)
		pts[id] = p
		for j, ls := range dyn.t.cs {
			if len(ls) > caps[j] {
				spilled++
			}
		}
		if err := linksEqual(dyn.Table(), NewLinkTable(pts, params)); err != nil {
			t.Fatalf("after moving node %d into the cluster: %v", id, err)
		}
	}
	if spilled < clustered {
		t.Fatalf("only %d lists outgrew their runs, want at least %d", spilled, clustered)
	}
	dyn.MoveAll(start)
	if err := linksEqual(dyn.Table(), NewLinkTable(start, params)); err != nil {
		t.Fatalf("after a MoveAll tick back to the start: %v", err)
	}
	dyn.Rebind(pts)
	if err := linksEqual(dyn.Table(), NewLinkTable(pts, params)); err != nil {
		t.Fatalf("after Rebind onto the clustered positions: %v", err)
	}
	t.Logf("%d lists outgrew their carved runs", spilled)
}

// TestDynamicLinkTableQuick widens the differential over random field
// shapes, densities and move counts, with teleports biased across
// grid-cell and field boundaries, small steps and RX hops.
func TestDynamicLinkTableQuick(t *testing.T) {
	params := radio.MustDefault80211Params(40, 2.2)
	var cov moveCoverage
	f := func(seed uint64, nRaw, moves uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%80) + 2
		side := 60 + float64(seed%200)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: r.Range(0, side), Y: r.Range(0, side)}
		}
		dyn := NewDynamicLinkTable(pts, params)
		for m := 0; m < int(moves%30)+1; m++ {
			id := r.Intn(n)
			p := drawMove(r, dyn, id, r.Intn(moveKinds), -side/2, 1.5*side)
			pts[id] = p
			cov.add(dyn, id, p)
		}
		return linksEqual(dyn.Table(), NewLinkTable(pts, params)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	t.Logf("%+v", cov)
	if !cov.complete() {
		t.Errorf("moves missed a path of Move: %+v", cov)
	}
}

// TestDynamicLinkTableRebind pins that Rebind restores the exact fresh
// state after arbitrary motion, reusing storage.
func TestDynamicLinkTableRebind(t *testing.T) {
	params := radio.MustDefault80211Params(40, 2.2)
	r := rng.New(9)
	pts := make([]geom.Point, 40)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, 100), Y: r.Range(0, 100)}
	}
	start := append([]geom.Point(nil), pts...)
	dyn := NewDynamicLinkTable(pts, params)
	for m := 0; m < 100; m++ {
		dyn.Move(r.Intn(len(pts)), geom.Point{X: r.Range(0, 100), Y: r.Range(0, 100)})
	}
	dyn.Rebind(start)
	if err := linksEqual(dyn.Table(), NewLinkTable(start, params)); err != nil {
		t.Fatalf("after Rebind: %v", err)
	}
}

// Tick kinds for the MoveAll differential: every node steps, a few nodes
// move (teleports, steps, RX hops and exact-radius placements), no node
// moves, and some nodes teleport out of the grid's original bounding box.
const (
	tickAll = iota
	tickFew
	tickNone
	tickOut
	tickKinds
)

// placeBoundary moves three random nodes of ps onto the boundary cases of
// the exact distance test: b exactly on a's RX or CS radius and c
// co-located with a. Anchoring a at X = 0 on b's row keeps the difference
// exact, so Dist returns the radius bit for bit.
func placeBoundary(r *rng.RNG, ps []geom.Point, rx, cs float64) {
	perm := r.Perm(len(ps))
	a, b, c := perm[0], perm[1], perm[2]
	y := r.Range(0, 100)
	ps[a] = geom.Point{X: 0, Y: y}
	ps[b] = geom.Point{X: rx, Y: y}
	if r.Bool(0.5) {
		ps[b].X = cs
	}
	ps[c] = ps[a]
}

// cloneLists deep-copies a table's per-node lists, so a later tick cannot
// edit the copy through shared storage.
func cloneLists(ls [][]link) [][]link {
	out := make([][]link, len(ls))
	for i, l := range ls {
		out[i] = append([]link(nil), l...)
	}
	return out
}

// TestDynamicLinkTableMoveAll is the per-tick refill's proof obligation.
// After every tick of a random sequence — every node steps, a few move,
// none move, some leave the original bounding box, with co-located nodes
// and distances exactly at the RX and CS radii — the table must equal a
// fresh NewLinkTable over the same positions and the same moves applied
// one node at a time with Move, edge for edge and bit for bit. Exactly
// the nodes whose lists changed must have their versions bumped.
func TestDynamicLinkTableMoveAll(t *testing.T) {
	params := radio.MustDefault80211Params(40, 2.2)
	rx, cs := params.TxRange(), params.CSRange()
	r := rng.New(5)
	side := 150.0
	pts := randomField(80, side, r)
	dyn := NewDynamicLinkTable(pts, params)
	ref := NewDynamicLinkTable(pts, params)
	ps := append([]geom.Point(nil), pts...)
	var bumped, kept, exactRX, exactCS, coLocated int
	for tick := 0; tick < 400; tick++ {
		kind := tick % tickKinds
		switch kind {
		case tickAll:
			for i := range ps {
				ps[i] = drawMove(r, dyn, i, step, 0, side)
			}
		case tickFew:
			for k := r.Intn(4); k > 0; k-- {
				id := r.Intn(len(ps))
				ps[id] = drawMove(r, dyn, id, r.Intn(moveKinds), 0, side)
			}
			if r.Bool(0.5) {
				placeBoundary(r, ps, rx, cs)
			}
		case tickOut:
			for k := r.Intn(6) + 1; k > 0; k-- {
				ps[r.Intn(len(ps))] = geom.Point{X: r.Range(-side, 2*side), Y: r.Range(-side, 2*side)}
			}
		}
		before := cloneLists(dyn.t.cs)
		beforeVer := slices.Clone(dyn.t.ver)

		dyn.MoveAll(ps)
		for i, p := range ps {
			ref.Move(i, p)
		}
		if err := linksEqual(dyn.Table(), NewLinkTable(ps, params)); err != nil {
			t.Fatalf("tick %d (kind %d) vs NewLinkTable: %v", tick, kind, err)
		}
		if err := linksEqual(dyn.Table(), ref.Table()); err != nil {
			t.Fatalf("tick %d (kind %d) vs per-node Move: %v", tick, kind, err)
		}
		for i := range ps {
			changed := !slices.Equal(dyn.t.cs[i], before[i])
			want := beforeVer[i]
			if changed {
				want++
				bumped++
			} else {
				kept++
			}
			if dyn.t.ver[i] != want {
				t.Fatalf("tick %d (kind %d): node %d version %d, want %d (lists changed: %v)",
					tick, kind, i, dyn.t.ver[i], want, changed)
			}
			if kind == tickNone && changed {
				t.Fatalf("tick %d: node %d's lists changed on a tick with no motion", tick, i)
			}
			for j := range ps[:i] {
				switch d := ps[i].Dist(ps[j]); d {
				case rx:
					exactRX++
				case cs:
					exactCS++
				case 0:
					coLocated++
				}
			}
		}
	}
	t.Logf("versions bumped %d, kept %d; pairs exactly at RX %d, at CS %d, co-located %d",
		bumped, kept, exactRX, exactCS, coLocated)
	if bumped == 0 || kept == 0 || exactRX == 0 || exactCS == 0 || coLocated == 0 {
		t.Error("ticks missed a case: want bumped and kept versions, exact-radius and co-located pairs")
	}
}

// TestDynamicLinkTableMoveAllAllocs pins that a warm tick allocates
// nothing: alternating between two position sets, every list's storage
// reaches its high-water mark after the first two ticks.
func TestDynamicLinkTableMoveAllAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	params := radio.MustDefault80211Params(40, 2.2)
	r := rng.New(4)
	a := randomField(100, 200, r)
	b := slices.Clone(a)
	for i := range b {
		b[i] = b[i].Add(geom.Point{X: r.Range(-1, 1), Y: r.Range(-1, 1)})
	}
	dyn := NewDynamicLinkTable(a, params)
	dyn.MoveAll(b)
	dyn.MoveAll(a)
	k := 0
	if got := testing.AllocsPerRun(20, func() {
		if k++; k%2 == 1 {
			dyn.MoveAll(b)
		} else {
			dyn.MoveAll(a)
		}
	}); got != 0 {
		t.Fatalf("a warm MoveAll tick allocated %.1f objects, want 0", got)
	}
}

// BenchmarkLinkTableMove measures the incremental-update cost per move.
// The two teleport sizes share one density (the field area scales with
// the node count), so the per-move cost should stay roughly flat from 200
// to 800 nodes — it drifts up somewhat because a disc clamped inside the
// larger field keeps more of its area (higher mean in-disc population)
// and the table no longer fits in cache, but nowhere near the 4x of an
// O(n) incident scan or the 16x of an O(n²) rebuild-style update. A
// teleport keeps no neighbor, so the step case (±1 m per axis on the
// 200-node field, a 100 ms mobility tick at up to 10 m/s) is the one
// that exercises the in-place edits of surviving edges.
func BenchmarkLinkTableMove(b *testing.B) {
	params := radio.MustDefault80211Params(40, 2.2)
	for _, bc := range []struct {
		name string
		n    int
		side float64
		step float64 // 0 = teleport anywhere in the field
	}{{"200nodes", 200, 200, 0}, {"800nodes", 800, 400, 0}, {"step-200nodes", 200, 200, 1}} {
		n, side, step := bc.n, bc.side, bc.step
		b.Run(bc.name, func(b *testing.B) {
			r := rng.New(7)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{X: r.Range(0, side), Y: r.Range(0, side)}
			}
			dyn := NewDynamicLinkTable(pts, params)
			// Pre-draw the move targets (teleports) or offsets (steps)
			// so the RNG stays off the clock.
			targets := make([]geom.Point, 1024)
			for i := range targets {
				if step > 0 {
					targets[i] = geom.Point{X: r.Range(-step, step), Y: r.Range(-step, step)}
				} else {
					targets[i] = geom.Point{X: r.Range(0, side), Y: r.Range(0, side)}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, p := i%n, targets[i%len(targets)]
				if step > 0 {
					p = dyn.Position(id).Add(p)
				}
				dyn.Move(id, p)
			}
		})
	}

	// One motion tick on a 100-node field of the paper grid's density:
	// every node steps ±1 m per axis (reflected at the field border), then
	// one MoveAll refills the table. The pernode case applies the same
	// tick through one Move per node, the path MoveAll replaced.
	for _, perNode := range []bool{false, true} {
		name := "tick-100nodes"
		if perNode {
			name += "-pernode"
		}
		b.Run(name, func(b *testing.B) {
			const n, side = 100, 200.0
			r := rng.New(7)
			ps := randomField(n, side, r)
			dyn := NewDynamicLinkTable(ps, params)
			steps := make([]geom.Point, 1021) // prime, so nodes see varied steps
			for i := range steps {
				steps[i] = geom.Point{X: r.Range(-1, 1), Y: r.Range(-1, 1)}
			}
			reflect := func(x, d float64) float64 {
				if x+d < 0 || x+d > side {
					return x - d
				}
				return x + d
			}
			k := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for id := range ps {
					s := steps[k%len(steps)]
					k++
					ps[id] = geom.Point{X: reflect(ps[id].X, s.X), Y: reflect(ps[id].Y, s.Y)}
					if perNode {
						dyn.Move(id, ps[id])
					}
				}
				if !perNode {
					dyn.MoveAll(ps)
				}
			}
		})
	}
}
