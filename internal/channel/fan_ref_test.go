package channel

import (
	"fmt"
	"testing"
	"testing/quick"

	"mtmrp/internal/geom"
	"mtmrp/internal/packet"
	"mtmrp/internal/radio"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

// This file is the proof obligation for the cursor fan (fanOut): the
// channel must produce, carrier edge for carrier edge and frame for frame,
// the trace of the per-link fan it replaced — one start and one end event
// per carrier-sense link, scheduled in CS-list order. refTransmit below is
// that per-link fan, kept as the reference the way refheap_test.go keeps the
// binary heap for the ladder queue.

// refArrival pairs a reference-path arrival with its channel (the fan
// record carries the channel for the production path).
type refArrival struct {
	c *Channel
	a arrival
}

// Each per-link event counts as one fan call, as a cursor call does.
var (
	refSigStartCB = func(arg any, i int) {
		c := arg.(*Channel)
		c.stats.FanCalls++
		c.signalStart(i)
	}
	refSigEndCB = func(arg any, i int) {
		c := arg.(*Channel)
		c.stats.FanCalls++
		c.signalEnd(i)
	}
	refSigArrStartCB = func(arg any, i int) {
		r := arg.(*refArrival)
		r.c.stats.FanCalls++
		r.c.signalStart(i)
		r.c.startArrival(i, &r.a)
	}
	refSigArrEndCB = func(arg any, i int) {
		r := arg.(*refArrival)
		r.c.stats.FanCalls++
		r.c.signalEnd(i)
		r.c.endArrival(i, &r.a)
	}
)

// refTransmit is the per-link reference of transmitInto + ScheduleBatch:
// tx end, then per CS link (in CS-list order) one start and one end event,
// each scheduled on its own. It ignores Config.Pool; the differential runs
// without one.
func (c *Channel) refTransmit(i int, p *packet.Packet) sim.Time {
	st := &c.state[i]
	if st.transmitting {
		panic(fmt.Sprintf("channel: node %d transmit while transmitting", i))
	}
	c.uid++
	p.UID = c.uid
	c.stats.Transmissions++
	dur := c.Duration(p.Size)
	st.transmitting = true
	for _, a := range st.active {
		if !a.aborted {
			a.aborted = true
			c.stats.HalfDuplex++
		}
	}
	c.signalStart(i)
	c.sim.AfterCall(dur, txEndCB, c, i)
	shadow := c.cfg.ShadowingSigmaDB > 0
	lossy := c.loss != nil || c.degraded != nil
	for _, l := range c.links.cs[i] {
		to, delay := l.to(), l.delay()
		if (l.rx() || shadow) && c.decodable(l) && (!lossy || c.linkUp(i, to)) {
			a := &refArrival{c: c, a: arrival{pkt: p}}
			c.sim.AfterCall(delay, refSigArrStartCB, a, to)
			c.sim.AfterCall(delay+dur, refSigArrEndCB, a, to)
		} else {
			c.sim.AfterCall(delay, refSigStartCB, c, to)
			c.sim.AfterCall(delay+dur, refSigEndCB, c, to)
		}
	}
	return dur
}

// traceRec is one observation at a radio: a carrier edge (frame 0), a
// decoded frame (its UID) or, when probe is set, what Busy read as the
// node began or stopped listening.
type traceRec struct {
	at    sim.Time
	node  int
	busy  bool
	frame uint64
	probe bool
}

// fanRig drives one channel (fan or reference path) through a scripted
// workload on a DynamicLinkTable. Radios react to what they observe —
// a deferred send goes out inside the carrier-idle callback, and some
// receptions are forwarded at once or a random-free moment later — so
// the channel's own callbacks transmit while the fan's cursors are mid-way,
// exactly where an ordering slip would show. A deaf radio ignores carrier
// edges; only the fan path tells the channel (Listen), so only there are
// its edges folded, and only there must the channel tell it of none
// (deafCalls counts the edges it was told of anyway).
type fanRig struct {
	sc    *fanScript
	s     *sim.Simulator
	c     *Channel
	dyn   *DynamicLinkTable
	ref   bool
	trace []traceRec
	want  []int  // deferred frame size per node (0 = none)
	deaf  []bool // radios not listening to carrier edges
	relay int    // receptions left that may react, so relaying cannot flood forever

	deafCalls int // carrier edges the fan path handed to a deaf radio
}

type rigRadio struct {
	g    *fanRig
	node int
}

func (r rigRadio) CarrierChanged(busy bool) {
	g := r.g
	if g.deaf[r.node] {
		if !g.ref {
			g.deafCalls++
		}
		return
	}
	g.trace = append(g.trace, traceRec{at: g.s.Now(), node: r.node, busy: busy})
	if !busy && g.want[r.node] > 0 {
		size := g.want[r.node]
		g.want[r.node] = 0
		g.send(r.node, size)
	}
}

// deliver is the channel's delivery hook: it logs the decoded frame and
// may react to it by transmitting.
func (g *fanRig) deliver(to int, p *packet.Packet) {
	g.trace = append(g.trace, traceRec{at: g.s.Now(), node: to, frame: p.UID})
	if g.relay == 0 {
		return
	}
	g.relay--
	switch (p.UID + uint64(to)) % 7 {
	case 0:
		g.send(to, 20+int(p.UID%40)) // forward inside the end run
	case 1:
		g.s.AfterCall(0, rigSendCB, g, to) // same instant, queued behind the run
	case 2:
		g.s.AfterCall(sim.Time(p.UID%300), rigSendCB, g, to) // within a delay
	}
}

func (g *fanRig) send(i, size int) {
	if g.c.state[i].transmitting {
		return
	}
	if g.c.Busy(i) && g.want[i] == 0 {
		g.want[i] = size // defer to the carrier-idle edge
		g.listen(i, true)
		return
	}
	p := packet.NewHello(packet.NodeID(i), nil)
	p.Size = size
	if g.ref {
		g.c.refTransmit(i, p)
	} else {
		g.c.Transmit(i, p)
	}
}

// listen makes radio i listen to carrier edges or stop, telling the
// channel on the fan path only.
func (g *fanRig) listen(i int, on bool) {
	g.deaf[i] = !on
	if !g.ref {
		g.c.Listen(i, on)
	}
}

// rigOp is one scripted action: a send (size > 0), a move (to set), a
// listening toggle (listen set) or a degradation toggle.
type rigOp struct {
	at     sim.Time
	node   int
	size   int
	move   bool
	listen bool
	to     geom.Point
}

// fanScript is the pre-drawn workload both paths replay. deaf, when set,
// names the radios that start out not listening.
type fanScript struct {
	pos  []geom.Point
	ops  []rigOp
	deaf []bool
}

func newFanScript(seed uint64, grid bool) *fanScript {
	r := rng.New(seed)
	sc := &fanScript{}
	if grid {
		sc.pos = topology.PaperGrid().Positions
	} else {
		sc.pos = randomField(120, 200, r)
		sc.pos[1] = sc.pos[0] // a co-located pair: zero propagation delay
	}
	n := len(sc.pos)
	const horizon = 40_000_000 // 40 ms
	for k := 0; k < 250; k++ {
		sc.ops = append(sc.ops, rigOp{at: sim.Time(r.Intn(horizon)), node: r.Intn(n), size: 10 + r.Intn(120)})
	}
	for k := 0; k < 60; k++ {
		to := geom.Point{X: r.Range(0, 200), Y: r.Range(0, 200)}
		sc.ops = append(sc.ops, rigOp{at: sim.Time(r.Intn(horizon)), node: r.Intn(n), move: true, to: to})
	}
	for k := 0; k < 10; k++ {
		sc.ops = append(sc.ops, rigOp{at: sim.Time(r.Intn(horizon)), node: r.Intn(n)})
	}
	return sc
}

// withListening adds to sc radios that start deaf (two in three) and 300
// listening toggles, some landing inside a frame, drawn from seed.
func (sc *fanScript) withListening(seed uint64) *fanScript {
	r := rng.New(seed).Derive("listen")
	n := len(sc.pos)
	sc.deaf = make([]bool, n)
	for i := range sc.deaf {
		sc.deaf[i] = r.Intn(3) > 0
	}
	const horizon = 40_000_000
	for k := 0; k < 300; k++ {
		sc.ops = append(sc.ops, rigOp{at: sim.Time(r.Intn(horizon)), node: r.Intn(n), listen: true})
	}
	return sc
}

var (
	rigSendCB = func(arg any, i int) { arg.(*fanRig).send(i, 33) }
	rigOpCB   = func(arg any, k int) {
		g := arg.(*fanRig)
		switch op := g.sc.ops[k]; {
		case op.size > 0:
			g.send(op.node, op.size)
		case op.move:
			g.dyn.Move(op.node, op.to)
		case op.listen:
			on := g.deaf[op.node]
			if !on && g.want[op.node] > 0 {
				return // a deferred send waits for the idle edge
			}
			g.trace = append(g.trace, traceRec{at: g.s.Now(), node: op.node, busy: g.c.Busy(op.node), probe: true})
			g.listen(op.node, on)
		default:
			g.c.SetDegraded(op.node, !g.c.Degraded(op.node))
		}
	}
)

// run plays the script on one path and returns the radio trace, the
// channel counters and the simulator counters. It fails t if the channel
// told a deaf radio of a carrier edge.
func (sc *fanScript) run(t *testing.T, ref bool, seed uint64) ([]traceRec, Stats, sim.Stats) {
	params := radio.MustDefault80211Params(40, 2.2)
	loss := DefaultLossConfig()
	g := &fanRig{sc: sc, s: sim.New(), ref: ref, want: make([]int, len(sc.pos)), deaf: make([]bool, len(sc.pos)), relay: 1000}
	g.dyn = NewDynamicLinkTable(sc.pos, params)
	g.c = NewWithTable(g.s, g.dyn.Table(), Config{
		ShadowingSigmaDB: 3, Rand: rng.New(seed).Derive("shadow"),
		Loss: &loss, LossRand: rng.New(seed).Derive("loss"),
	})
	g.c.Deliver = g.deliver
	for i := range sc.pos {
		g.c.Attach(i, rigRadio{g, i})
		if sc.deaf != nil && sc.deaf[i] {
			g.listen(i, false)
		}
	}
	for k, op := range sc.ops {
		g.s.AtCall(op.at, rigOpCB, g, k)
	}
	g.s.Run()
	if g.deafCalls != 0 {
		t.Errorf("seed %d: the channel told deaf radios of %d carrier edges", seed, g.deafCalls)
	}
	return g.trace, g.c.Stats(), g.s.Stats()
}

// TestFanMatchesPerLinkReference is the channel-level differential: grid
// and random tables, shadowing, Gilbert–Elliott loss and endpoint
// degradation all on, nodes moving while frames are in flight, and
// radios transmitting from inside the fan's own callbacks. The cursor
// fan must reproduce the per-link reference's full (time, node,
// carrier edge or decoded frame) trace and every channel counter, and run
// the same number of events from fewer queue entries.
func TestFanMatchesPerLinkReference(t *testing.T) {
	for _, grid := range []bool{true, false} {
		name := "random"
		if grid {
			name = "grid"
		}
		t.Run(name, func(t *testing.T) {
			f := func(seed uint64) bool {
				sc := newFanScript(seed, grid)
				want, wantSt, wantSim := sc.run(t, true, seed)
				got, gotSt, gotSim := sc.run(t, false, seed)
				if len(want) == 0 || wantSt.Deliveries == 0 {
					t.Logf("seed %d: empty workload", seed)
					return false
				}
				for k := 0; k < len(want) && k < len(got); k++ {
					if got[k] != want[k] {
						t.Logf("seed %d: trace diverges at %d: fan %+v, reference %+v", seed, k, got[k], want[k])
						return false
					}
				}
				if len(got) != len(want) {
					t.Logf("seed %d: trace length: fan %d, reference %d", seed, len(got), len(want))
					return false
				}
				// The reference never sorts; the fan sorts at most once
				// per transmission.
				if gotSt.FanSorts == 0 || gotSt.FanSorts > gotSt.Transmissions {
					t.Logf("seed %d: %d fan sorts for %d transmissions", seed, gotSt.FanSorts, gotSt.Transmissions)
					return false
				}
				gotSt.FanSorts = 0
				if gotSt != wantSt {
					t.Logf("seed %d: stats: fan %+v, reference %+v", seed, gotSt, wantSt)
					return false
				}
				if gotSim.Processed != wantSim.Processed || gotSim.MaxPending != wantSim.MaxPending ||
					gotSim.Entries >= wantSim.Entries {
					t.Logf("seed %d: sim stats: fan %+v, reference %+v", seed, gotSim, wantSim)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestLazyFanMatchesPerLinkReference is the channel-level differential
// for lazy carrier sense: the workload of TestFanMatchesPerLinkReference
// with most radios deaf at the start and listening toggled 300 times,
// some toggles landing while frames are in flight, and deferring radios
// listening until their idle edge. The fan path tells the channel
// (Listen), so it folds the edges of non-decoding members at deaf
// radios; the per-link reference runs them all and the deaf radios
// ignore them. Both must log the same trace, Busy probes at every
// toggle included, the same channel counters, with the fan's run and
// folded calls adding up to the reference's, and the same number of
// events, fewer of them executed and never more of them queued.
func TestLazyFanMatchesPerLinkReference(t *testing.T) {
	for _, grid := range []bool{true, false} {
		name := "random"
		if grid {
			name = "grid"
		}
		t.Run(name, func(t *testing.T) {
			f := func(seed uint64) bool {
				_, ok := newFanScript(seed, grid).withListening(seed).lazyMatches(t, seed)
				return ok
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
				t.Error(err)
			}
		})
	}
}

// lazyMatches plays sc on the lazy fan path and on the per-link reference
// and reports, with the lazy path's counters, whether they agree: the
// same trace, Busy probes included, the same channel counters, with the
// fan's run and folded calls adding up to the reference's, and the same
// number of events, fewer of them executed and never more of them
// queued. The workload must both fold and materialise edges.
func (sc *fanScript) lazyMatches(t *testing.T, seed uint64) (Stats, bool) {
	want, wantSt, wantSim := sc.run(t, true, seed)
	got, gotSt, gotSim := sc.run(t, false, seed)
	lazySt := gotSt
	if gotSt.Folded == 0 || gotSt.Materialised == 0 {
		t.Logf("seed %d: %d calls folded, %d materialised; the workload must do both", seed, gotSt.Folded, gotSt.Materialised)
		return lazySt, false
	}
	for k := 0; k < len(want) && k < len(got); k++ {
		if got[k] != want[k] {
			t.Logf("seed %d: trace diverges at %d: lazy %+v, reference %+v", seed, k, got[k], want[k])
			return lazySt, false
		}
	}
	if len(got) != len(want) {
		t.Logf("seed %d: trace length: lazy %d, reference %d", seed, len(got), len(want))
		return lazySt, false
	}
	if gotSt.FanCalls+gotSt.Folded != wantSt.FanCalls {
		t.Logf("seed %d: %d fan calls run and %d folded, reference ran %d", seed, gotSt.FanCalls, gotSt.Folded, wantSt.FanCalls)
		return lazySt, false
	}
	// The reference tells every radio of every edge and the deaf ones
	// ignore them; the lazy path tells only the listening radios, which
	// log every edge they are told of.
	if edges := carrierEdges(got); gotSt.Notified != edges {
		t.Logf("seed %d: lazy path notified %d carrier edges, listening radios logged %d", seed, gotSt.Notified, edges)
		return lazySt, false
	}
	gotSt.FanSorts, gotSt.FanCalls, gotSt.Folded, gotSt.Materialised, gotSt.Notified = 0, wantSt.FanCalls, 0, 0, wantSt.Notified
	if gotSt != wantSt {
		t.Logf("seed %d: stats: lazy %+v, reference %+v", seed, gotSt, wantSt)
		return lazySt, false
	}
	if gotSim.Processed != wantSim.Processed || gotSim.Executed >= wantSim.Executed ||
		gotSim.MaxPending > wantSim.MaxPending {
		t.Logf("seed %d: sim stats: lazy %+v, reference %+v", seed, gotSim, wantSim)
		return lazySt, false
	}
	return lazySt, true
}

// TestAllFoldedFanMatchesPerLinkReference holds the fan whose every
// member folds to the per-link reference. Node 0 transmits four times to
// four carrier neighbours 78-80 m away, outside the 40 m decode disc,
// none of them listening when a frame starts; each fan keeps no member,
// only the seqs its cursors would have taken (Batch.Reserve). In each
// frame one neighbour starts listening: while the frame is under way (its
// end edge is queued under the reserved key), at the instant it is sent,
// before its first edge (both edges are), or after it ended (none is).
func TestAllFoldedFanMatchesPerLinkReference(t *testing.T) {
	const us, ms = sim.Microsecond, sim.Millisecond
	sc := &fanScript{
		pos:  []geom.Point{{X: 100, Y: 100}, {X: 180, Y: 100}, {X: 100, Y: 178}, {X: 45, Y: 45}, {X: 100, Y: 20}},
		deaf: []bool{true, true, true, true, true},
	}
	// Listening windows, relative to each send; the send's op comes
	// first, so a window opening at 0 follows it.
	windows := [][2]sim.Time{{100 * us, ms}, {0, ms}, {ms, 1500 * us}, {100 * us, ms}}
	for k, w := range windows {
		at := sim.Time(1+2*k) * ms
		sc.ops = append(sc.ops,
			rigOp{at: at, node: 0, size: 100},
			rigOp{at: at + w[0], node: 1 + k, listen: true},
			rigOp{at: at + w[1], node: 1 + k, listen: true})
	}
	got, ok := sc.lazyMatches(t, 1)
	if !ok {
		t.Fatal("lazy fan diverges from the per-link reference")
	}
	// No edge ran from a fan: every one was folded, and the four
	// materialised ones (one, two, none and one per frame) ran as spans.
	if got.FanCalls != 0 || got.Transmissions != 4 || got.Materialised != 4 {
		t.Errorf("%d fan calls, %d materialised for %d transmissions; want every fan folded, 4 materialised",
			got.FanCalls, got.Materialised, got.Transmissions)
	}
}

// fanEntries transmits once from node on a quiet channel, with a MAC
// tx-done riding in the same batch, drains the simulator, and returns
// its counters.
func fanEntries(t *testing.T, s *sim.Simulator, c *Channel, node int) sim.Stats {
	t.Helper()
	txDone := 0
	c.TransmitThen(node, hello(packet.NodeID(node)), func(any, int) { txDone++ }, nil, 0)
	s.Run()
	st := s.Stats()
	if want := uint64(2*len(c.links.cs[node]) + 2); st.Processed != want || txDone != 1 {
		t.Errorf("processed %d events (tx-done ran %d times), want %d (1)", st.Processed, txDone, want)
	}
	return st
}

// TestPaperGridFanEntries pins the queue cost of one interior-node
// transmission on the paper's grid (22.2 m spacing, 40 m range, 2.2x
// carrier sense): 44 CS neighbors make 90 events — tx end, a start and an
// end edge per neighbor, and the MAC's tx-done — carried by exactly 4
// queue entries: tx-end, the start cursor, the end cursor and tx-done.
func TestPaperGridFanEntries(t *testing.T) {
	s := sim.New()
	c := NewWithTable(s, NewLinkTable(topology.PaperGrid().Positions, radio.MustDefault80211Params(40, 2.2)), Config{})
	const node = 44 // row 4, column 4
	if n := len(c.links.cs[node]); n != 44 {
		t.Fatalf("node %d has %d CS neighbors, want 44", node, n)
	}
	if st := fanEntries(t, s, c, node); st.Entries != 4 {
		t.Errorf("%d events took %d queue entries, want 4", st.Processed, st.Entries)
	}
}

// TestRandomFieldFanEntries is the same pin on a paper-density random
// field, where nearly every carrier-sense link has its own propagation
// delay: a fan's entry count must not grow with its distinct delays.
func TestRandomFieldFanEntries(t *testing.T) {
	s, c := denseChannel(200)
	node, delays := 0, 0
	for i, cs := range c.links.cs {
		seen := map[sim.Time]bool{}
		for _, l := range cs {
			seen[l.delay()] = true
		}
		if len(seen) > delays {
			node, delays = i, len(seen)
		}
	}
	if delays < 30 {
		t.Fatalf("busiest node %d has %d distinct delays, want at least 30", node, delays)
	}
	if st := fanEntries(t, s, c, node); st.Entries != 4 {
		t.Errorf("%d events over %d distinct delays took %d queue entries, want 4", st.Processed, delays, st.Entries)
	}
}

// carrierEdges counts the carrier edges in a radio trace.
func carrierEdges(tr []traceRec) uint64 {
	n := uint64(0)
	for _, r := range tr {
		if !r.probe && r.frame == 0 {
			n++
		}
	}
	return n
}
