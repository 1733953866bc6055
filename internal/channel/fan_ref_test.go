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
// that per-link fan, kept as the reference the way refheap.go keeps the
// binary heap for the ladder queue.

// refArrival pairs a reference-path arrival with its channel (the fan
// record carries the channel for the production path).
type refArrival struct {
	c *Channel
	a arrival
}

var (
	refSigStartCB    = func(arg any, i int) { arg.(*Channel).signalStart(i) }
	refSigEndCB      = func(arg any, i int) { arg.(*Channel).signalEnd(i) }
	refSigArrStartCB = func(arg any, i int) {
		r := arg.(*refArrival)
		r.c.signalStart(i)
		r.c.startArrival(i, &r.a)
	}
	refSigArrEndCB = func(arg any, i int) {
		r := arg.(*refArrival)
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

// traceRec is one observation at a radio: a carrier edge (frame 0) or a
// decoded frame (its UID).
type traceRec struct {
	at    sim.Time
	node  int
	busy  bool
	frame uint64
}

// fanRig drives one channel (fan or reference path) through a scripted
// workload on a DynamicLinkTable. Radios react to what they observe —
// a deferred send goes out inside the carrier-idle callback, and some
// receptions are forwarded at once or a random-free moment later — so
// the channel's own callbacks transmit while the fan's cursors are mid-way,
// exactly where an ordering slip would show.
type fanRig struct {
	sc    *fanScript
	s     *sim.Simulator
	c     *Channel
	dyn   *DynamicLinkTable
	ref   bool
	trace []traceRec
	want  []int // deferred frame size per node (0 = none)
	relay int   // receptions left that may react, so relaying cannot flood forever
}

type rigRadio struct {
	g    *fanRig
	node int
}

func (r rigRadio) CarrierChanged(busy bool) {
	g := r.g
	g.trace = append(g.trace, traceRec{at: g.s.Now(), node: r.node, busy: busy})
	if !busy && g.want[r.node] > 0 {
		size := g.want[r.node]
		g.want[r.node] = 0
		g.send(r.node, size)
	}
}

func (r rigRadio) FrameReceived(p *packet.Packet) {
	g := r.g
	g.trace = append(g.trace, traceRec{at: g.s.Now(), node: r.node, frame: p.UID})
	if g.relay == 0 {
		return
	}
	g.relay--
	switch (p.UID + uint64(r.node)) % 7 {
	case 0:
		g.send(r.node, 20+int(p.UID%40)) // forward inside the end run
	case 1:
		g.s.AfterCall(0, rigSendCB, g, r.node) // same instant, queued behind the run
	case 2:
		g.s.AfterCall(sim.Time(p.UID%300), rigSendCB, g, r.node) // within a delay
	}
}

func (g *fanRig) send(i, size int) {
	if g.c.state[i].transmitting {
		return
	}
	if g.c.Busy(i) && g.want[i] == 0 {
		g.want[i] = size // defer to the carrier-idle edge
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

// rigOp is one scripted action: a send (size > 0), a move (to set) or a
// degradation toggle.
type rigOp struct {
	at   sim.Time
	node int
	size int
	move bool
	to   geom.Point
}

// fanScript is the pre-drawn workload both paths replay.
type fanScript struct {
	pos []geom.Point
	ops []rigOp
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

var (
	rigSendCB = func(arg any, i int) { arg.(*fanRig).send(i, 33) }
	rigOpCB   = func(arg any, k int) {
		g := arg.(*fanRig)
		switch op := g.sc.ops[k]; {
		case op.size > 0:
			g.send(op.node, op.size)
		case op.move:
			g.dyn.Move(op.node, op.to)
		default:
			g.c.SetDegraded(op.node, !g.c.Degraded(op.node))
		}
	}
)

// run plays the script on one path and returns the radio trace, the
// channel counters and the simulator counters.
func (sc *fanScript) run(ref bool, seed uint64) ([]traceRec, Stats, sim.Stats) {
	params := radio.MustDefault80211Params(40, 2.2)
	loss := DefaultLossConfig()
	g := &fanRig{sc: sc, s: sim.New(), ref: ref, want: make([]int, len(sc.pos)), relay: 1000}
	g.dyn = NewDynamicLinkTable(sc.pos, params)
	g.c = NewWithTable(g.s, g.dyn.Table(), Config{
		ShadowingSigmaDB: 3, Rand: rng.New(seed).Derive("shadow"),
		Loss: &loss, LossRand: rng.New(seed).Derive("loss"),
	})
	for i := range sc.pos {
		g.c.Attach(i, rigRadio{g, i})
	}
	for k, op := range sc.ops {
		g.s.AtCall(op.at, rigOpCB, g, k)
	}
	g.s.Run()
	return g.trace, g.c.Stats(), g.s.Stats()
}

// TestFanMatchesPerLinkReference is the channel-level differential: grid
// and random tables, shadowing, Gilbert–Elliott loss and endpoint
// degradation all on, nodes moving while frames are in flight, and
// radios transmitting from inside the fan's own callbacks. The cursor
// fan must reproduce the per-link reference's full (time, node,
// CarrierChanged/FrameReceived) trace and every channel counter, and run
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
				want, wantSt, wantSim := sc.run(true, seed)
				got, gotSt, gotSim := sc.run(false, seed)
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
	c := New(s, topology.PaperGrid().Positions, radio.MustDefault80211Params(40, 2.2), Config{})
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
