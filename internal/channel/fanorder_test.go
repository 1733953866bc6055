package channel

import (
	"slices"
	"testing"

	"mtmrp/internal/geom"
	"mtmrp/internal/packet"
	"mtmrp/internal/radio"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
)

// This file pins the fan-order cache (fanOrder): a channel sorts a node's
// fan once and reuses the order until that node's links change, so every
// path that changes a link list — Channel.Reset onto another table, and
// DynamicLinkTable.Move, MoveAll and Rebind — must invalidate exactly the
// orders it makes stale.

// traceRadio records what one node observes into a shared trace.
type traceRadio struct {
	s     *sim.Simulator
	node  int
	trace *[]traceRec
}

func (r traceRadio) CarrierChanged(busy bool) {
	*r.trace = append(*r.trace, traceRec{at: r.s.Now(), node: r.node, busy: busy})
}

// cacheRig is one traced channel, transmitting through the cursor fan or,
// with ref set, through the per-link reference fan (refTransmit).
type cacheRig struct {
	s     *sim.Simulator
	c     *Channel
	ref   bool
	trace []traceRec
}

func newCacheRig(links *LinkTable, ref bool) *cacheRig {
	g := &cacheRig{s: sim.New(), ref: ref}
	g.c = NewWithTable(g.s, links, Config{})
	for i := 0; i < links.n; i++ {
		g.c.Attach(i, traceRadio{g.s, i, &g.trace})
	}
	g.c.Deliver = func(to int, p *packet.Packet) {
		g.trace = append(g.trace, traceRec{at: g.s.Now(), node: to, frame: p.UID})
	}
	return g
}

// round transmits once from every node in turn, draining the simulator
// after each frame.
func (g *cacheRig) round() {
	for i := 0; i < g.c.links.n; i++ {
		p := packet.NewHello(packet.NodeID(i), nil)
		if g.ref {
			g.c.refTransmit(i, p)
		} else {
			g.c.Transmit(i, p)
		}
		g.s.Run()
	}
}

func sameTrace(t *testing.T, what string, got, want []traceRec) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: empty reference trace", what)
	}
	for k := 0; k < len(got) && k < len(want); k++ {
		if got[k] != want[k] {
			t.Fatalf("%s: trace diverges at %d: got %+v, want %+v", what, k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: trace length %d, want %d", what, len(got), len(want))
	}
}

// TestFanOrderCacheReset: a channel that has cached every fan order on
// table A and is then Reset onto table B (same n, other positions) must
// trace exactly like a fresh channel on B. A second Reset onto B itself
// keeps every order, so that run sorts nothing.
func TestFanOrderCacheReset(t *testing.T) {
	params := radio.MustDefault80211Params(40, 2.2)
	a := NewLinkTable(randomField(60, 150, rng.New(1)), params)
	b := NewLinkTable(randomField(60, 150, rng.New(2)), params)

	g := newCacheRig(a, false)
	g.round()
	g.s.Reset()
	g.c.Reset(b)
	g.trace = g.trace[:0]
	g.round()
	fresh := newCacheRig(b, false)
	fresh.round()
	sameTrace(t, "Reset onto B", g.trace, fresh.trace)
	if got, want := g.c.Stats(), fresh.c.Stats(); got != want {
		t.Fatalf("stats after Reset onto B %+v, fresh channel on B %+v", got, want)
	}
	fans := 0
	for _, cs := range b.cs {
		if len(cs) > 0 {
			fans++
		}
	}
	if st := fresh.c.Stats(); st.FanSorts != uint64(fans) {
		t.Errorf("a round on B sorted %d fans, want one per transmitting node (%d)", st.FanSorts, fans)
	}

	g.s.Reset()
	g.c.Reset(b)
	g.trace = g.trace[:0]
	g.round()
	sameTrace(t, "second Reset onto B", g.trace, fresh.trace)
	if st := g.c.Stats(); st.FanSorts != 0 {
		t.Errorf("a Reset onto the same table sorted %d fans, want 0", st.FanSorts)
	}
}

// TestFanOrderCacheFollowsMoves puts a one-metre Move, a MoveAll tick and
// then a Rebind between rounds in which every node transmits, and checks
// each round against the per-link reference fan. The geometry makes the
// step touch every kind of list edit: the mover's own fan reorders, node
// 1 keeps the mover but now ranks it behind node 2, node 3 gains it, node
// 4 loses it, and nodes 5 and 6 cross its RX radius inside the CS disc.
func TestFanOrderCacheFollowsMoves(t *testing.T) {
	params := radio.MustDefault80211Params(40, 2.2)
	rx, cs := params.TxRange(), params.CSRange()
	start := []geom.Point{
		{X: 0, Y: 0},         // 0: the mover, stepping to (-1, 0)
		{X: 50, Y: 0},        // 1: 50 m -> 51 m
		{X: 50, Y: 50.5},     // 2: 50.5 m from node 1
		{X: -cs - 0.5},       // 3: enters the CS disc
		{X: cs - 0.5},        // 4: leaves the CS disc
		{X: rx - 0.5, Y: 1},  // 5: leaves the RX disc
		{X: -rx - 0.5, Y: 1}, // 6: enters the RX disc
	}
	to := geom.Point{X: -1}

	var rigs [2]*cacheRig
	var dyns [2]*DynamicLinkTable
	for k, ref := range []bool{false, true} {
		dyns[k] = NewDynamicLinkTable(start, params)
		rigs[k] = newCacheRig(dyns[k].Table(), ref)
	}
	g := rigs[0]
	check := func(what string) {
		t.Helper()
		for _, r := range rigs {
			r.round()
		}
		sameTrace(t, what, g.trace, rigs[1].trace)
		for _, r := range rigs {
			r.trace = r.trace[:0]
		}
	}

	check("before the move")
	before0, before1 := slices.Clone(g.c.rank[0]), slices.Clone(g.c.rank[1])
	for _, d := range dyns {
		d.Move(0, to)
	}
	tab := dyns[0].Table()
	if !hasLinkTo(tab.cs[3], 0, false) || hasLinkTo(tab.cs[4], 0, false) ||
		hasLinkTo(tab.cs[5], 0, true) || !hasLinkTo(tab.cs[6], 0, true) || !hasLinkTo(tab.cs[5], 0, false) {
		t.Fatal("the step does not make the intended CS and RX crossings")
	}
	check("after the move")
	if slices.Equal(g.c.rank[0], before0) || slices.Equal(g.c.rank[1], before1) {
		t.Fatal("the step leaves the mover's or node 1's fan in its old order")
	}
	sorts := g.c.Stats().FanSorts

	// A MoveAll tick steps node 3 one metre further out, off the
	// mover's CS disc: only nodes 0, 3 and 6 see their lists change, so
	// the next round sorts their three fans and reuses the other four.
	tick := make([]geom.Point, len(start))
	for i := range tick {
		tick[i] = dyns[0].Position(i)
	}
	tick[3].X--
	for _, d := range dyns {
		d.MoveAll(tick)
	}
	if hasLinkTo(tab.cs[3], 0, false) || !hasLinkTo(tab.cs[6], 3, false) {
		t.Fatal("the tick does not move node 3 off the mover's CS disc only")
	}
	check("after the MoveAll tick")
	if st := g.c.Stats(); st.FanSorts != sorts+3 {
		t.Errorf("MoveAll round sorted %d fans, want 3", st.FanSorts-sorts)
	}
	sorts = g.c.Stats().FanSorts

	for _, d := range dyns {
		d.Rebind(start)
	}
	check("after Rebind")
	if st := g.c.Stats(); st.FanSorts != sorts+uint64(len(start)) {
		t.Errorf("Rebind round sorted %d fans, want %d", st.FanSorts-sorts, len(start))
	}
}

// hasLinkTo reports whether ls holds a link to node to that, when rx is
// set, also carries the decode-range flag.
func hasLinkTo(ls []link, to int, rx bool) bool {
	for _, l := range ls {
		if l.to() == to {
			return l.rx() || !rx
		}
	}
	return false
}
