// Package channel models the shared wireless medium: when a node
// transmits, every node inside the reception disc receives the frame after
// the propagation delay — unless frames overlap (collision) or the receiver
// is itself transmitting (half-duplex). Nodes inside the larger
// carrier-sense disc observe the medium as busy, which drives the CSMA MAC.
//
// The interference model is deliberately simple and documented:
// two frames overlapping in time at a receiver destroy each other (no
// capture effect); signals strong enough to sense but too weak to decode
// mark the channel busy without corrupting concurrent receptions. This is
// a conservative subset of ns-2's 802.11 PHY that preserves the collision
// behaviour the paper's protocols react to.
package channel

import (
	"fmt"
	"math"

	"mtmrp/internal/geom"
	"mtmrp/internal/packet"
	"mtmrp/internal/radio"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
)

// Radio is the node-side endpoint the channel talks to (implemented by the
// MAC layer).
type Radio interface {
	// FrameReceived delivers a successfully decoded frame.
	FrameReceived(p *packet.Packet)
	// CarrierChanged notifies busy/idle transitions of the local medium.
	CarrierChanged(busy bool)
}

// arrival tracks one frame in flight toward one receiver. Arrivals are
// pooled: Transmit takes one from the channel's free list per decodable
// link and endArrival returns it once the reception resolves, so a
// steady-state transmission allocates nothing per neighbor.
type arrival struct {
	ch       *Channel
	pkt      *packet.Packet
	collided bool
	aborted  bool // receiver transmitted during reception
}

// nodeState is the per-node radio state machine.
type nodeState struct {
	busySignals  int // signals currently sensed (including own transmission)
	transmitting bool
	txPkt        *packet.Packet // frame on the air (release at tx end)
	active       []*arrival     // frames currently arriving within decode range
}

// Stats counts channel-level outcomes for diagnostics and tests.
type Stats struct {
	Transmissions uint64 // frames put on the air
	Deliveries    uint64 // successful frame receptions
	Collisions    uint64 // receptions lost to overlap
	HalfDuplex    uint64 // receptions lost because the receiver was transmitting
	LossDrops     uint64 // receptions lost to the Gilbert–Elliott chain
	DegradeDrops  uint64 // receptions lost to a degraded endpoint
}

// LossConfig parameterises the Gilbert–Elliott bursty packet-loss model:
// every directed link carries a two-state Markov chain (Good/Bad) that is
// stepped once per frame crossing the link, and the frame is then dropped
// with the state's drop probability. Geometric sojourn times make losses
// bursty — the regime noisy-MANET route-discovery studies evaluate — while
// staying O(1) per frame and fully deterministic under a seeded stream.
//
// DegradedDrop is the independent per-frame drop probability applied to
// links whose endpoint has been degraded by a fault event
// (Channel.SetDegraded); it models a failing radio or a jammed region
// rather than ambient channel noise, so it stacks on top of the chain.
type LossConfig struct {
	PGoodBad float64 // per-frame Good -> Bad transition probability
	PBadGood float64 // per-frame Bad -> Good transition probability
	DropGood float64 // drop probability while Good (usually 0)
	DropBad  float64 // drop probability while Bad (often 1)

	DegradedDrop float64 // extra drop probability on degraded endpoints
}

// DefaultLossConfig returns a moderately bursty channel: mean burst length
// 1/PBadGood ≈ 4 frames, stationary loss ≈ 14%, hard loss inside a burst.
func DefaultLossConfig() LossConfig {
	return LossConfig{
		PGoodBad:     0.05,
		PBadGood:     0.25,
		DropGood:     0,
		DropBad:      1,
		DegradedDrop: 0.5,
	}
}

// Config tunes the channel model.
type Config struct {
	// DisableCollisions delivers overlapping frames anyway (still honouring
	// half-duplex). Used by deterministic protocol unit tests.
	DisableCollisions bool

	// ShadowingSigmaDB enables log-normal shadowing: each frame arrival
	// draws an independent N(0, sigma) dB deviation on the deterministic
	// path loss, so links near the disc edge become probabilistic and
	// slightly longer links occasionally succeed. The paper disables
	// shadowing ("the shadowing fading factor is not considered"); this
	// knob powers the robustness extension study. Carrier sensing stays
	// deterministic (at the mean power) to keep the MAC analysable.
	ShadowingSigmaDB float64
	// Rand drives the shadowing draws; required when ShadowingSigmaDB > 0.
	Rand *rng.RNG

	// Loss enables the Gilbert–Elliott bursty loss model for every link
	// (nil = the lossless disc of the paper's evaluation). It can also be
	// swapped per run with SetLoss, which is how pooled sessions apply a
	// scenario's fault options.
	Loss *LossConfig
	// LossRand drives the loss-model and degradation draws; required when
	// either is used. It is a separate stream from Rand so enabling loss
	// cannot perturb the shadowing draws (and vice versa).
	LossRand *rng.RNG

	// Pool, when non-nil, recycles transmitted frames: the channel holds
	// one reference per pending arrival (plus the transmit-end event) and
	// releases them as those events resolve, so frames built by the pool
	// are reused instead of garbage-collected. Frame identity is never
	// load-bearing — receivers copy payloads by value — so pooling cannot
	// change behaviour.
	Pool *packet.Factory
}

// Channel is the shared medium for one simulation. Attach every node's
// radio before the first Transmit.
type Channel struct {
	sim    *sim.Simulator
	links  *LinkTable
	cfg    Config
	radios []Radio
	state  []nodeState
	uid    uint64
	stats  Stats

	arrFree []*arrival // recycled arrival records
	batch   sim.Batch  // per-transmission fan, flushed by ScheduleBatch

	// Loss-model state. loss is the active config (nil = off); geBad holds
	// one bit per directed link (from*n+to), set while the link's chain is
	// in the Bad state; degraded flags nodes hit by a link-degradation
	// fault event. All of it is lazily allocated and rewound by Reset, so
	// lossless simulations pay nothing.
	loss     *LossConfig
	geBad    []uint64
	degraded []bool

	// OnAir, if set, observes every transmission (for metrics/tracing).
	OnAir func(from int, p *packet.Packet)
	// OnDeliver, if set, observes every successful reception.
	OnDeliver func(to int, p *packet.Packet)
}

// New builds a channel over the given node positions, computing a private
// link table. When several simulations share one topology, build the table
// once with NewLinkTable and use NewWithTable instead.
func New(s *sim.Simulator, positions []geom.Point, params radio.Params, cfg Config) *Channel {
	return NewWithTable(s, NewLinkTable(positions, params), cfg)
}

// NewWithTable builds a channel over a precomputed (and possibly shared)
// link table. The table is read-only to the channel.
func NewWithTable(s *sim.Simulator, links *LinkTable, cfg Config) *Channel {
	if cfg.ShadowingSigmaDB > 0 && cfg.Rand == nil {
		panic("channel: shadowing requires a random source")
	}
	c := &Channel{
		sim:    s,
		links:  links,
		cfg:    cfg,
		radios: make([]Radio, links.n),
		state:  make([]nodeState, links.n),
	}
	c.SetLoss(cfg.Loss)
	return c
}

// SetLoss installs (or, with nil, removes) the Gilbert–Elliott loss model.
// Unlike the construction-time knobs, the loss model is a per-run setting:
// session reuse swaps it on Reset without rebuilding the channel. Every
// link chain starts in the Good state.
func (c *Channel) SetLoss(cfg *LossConfig) {
	if cfg != nil && c.cfg.LossRand == nil {
		panic("channel: loss model requires a random source")
	}
	c.loss = cfg
	if cfg != nil && c.geBad == nil {
		c.geBad = make([]uint64, (c.links.n*c.links.n+63)/64)
	}
	for i := range c.geBad {
		c.geBad[i] = 0
	}
}

// SetDegraded marks (or clears) node i as link-degraded: every frame on a
// link touching i is independently dropped with the configured
// DegradedDrop probability. Fault schedules drive this through ordinary
// simulator events; Reset clears all marks.
func (c *Channel) SetDegraded(i int, on bool) {
	if on && c.cfg.LossRand == nil {
		panic("channel: degradation requires a random source")
	}
	if c.degraded == nil {
		if !on {
			return
		}
		c.degraded = make([]bool, c.links.n)
	}
	c.degraded[i] = on
}

// Degraded reports whether node i is currently link-degraded.
func (c *Channel) Degraded(i int) bool {
	return c.degraded != nil && c.degraded[i]
}

// linkUp decides the fate of an otherwise-decodable frame from node i to
// node j under the loss model and any endpoint degradation. It must be
// called exactly once per such frame: it advances the link's chain.
func (c *Channel) linkUp(i, j int) bool {
	drop := false
	if l := c.loss; l != nil {
		idx := i*c.links.n + j
		bad := c.geBad[idx>>6]&(1<<(idx&63)) != 0
		// Step the chain, then apply the (new) state's drop probability:
		// a Good->Bad transition corrupts the frame that triggered it,
		// which is what makes back-to-back losses bursty.
		if bad {
			if c.cfg.LossRand.Bool(l.PBadGood) {
				bad = false
				c.geBad[idx>>6] &^= 1 << (idx & 63)
			}
		} else if c.cfg.LossRand.Bool(l.PGoodBad) {
			bad = true
			c.geBad[idx>>6] |= 1 << (idx & 63)
		}
		p := l.DropGood
		if bad {
			p = l.DropBad
		}
		if c.cfg.LossRand.Bool(p) {
			c.stats.LossDrops++
			drop = true
		}
	}
	if c.degraded != nil && (c.degraded[i] || c.degraded[j]) {
		p := DefaultLossConfig().DegradedDrop
		if c.loss != nil {
			p = c.loss.DegradedDrop
		}
		// Always draw, even when the chain already dropped the frame:
		// the draw sequence must depend only on the transmission fan, not
		// on earlier outcomes, so runs differing in one loss stay aligned.
		if c.cfg.LossRand.Bool(p) && !drop {
			c.stats.DegradeDrops++
			drop = true
		}
	}
	return !drop
}

// decodable reports whether a frame over the given link decodes, applying
// the per-frame shadowing draw when enabled. Without shadowing the answer
// is the deterministic disc (power >= RXThresh).
func (c *Channel) decodable(l link) bool {
	if c.cfg.ShadowingSigmaDB <= 0 {
		return l.power >= c.links.params.RXThresh
	}
	// Log-normal shadowing: deviate the mean path loss by N(0, sigma) dB.
	devDB := c.cfg.Rand.NormFloat64() * c.cfg.ShadowingSigmaDB
	return 10*math.Log10(l.power/c.links.params.RXThresh)+devDB >= 0
}

// Attach registers the radio endpoint for node i.
func (c *Channel) Attach(i int, r Radio) {
	if c.radios[i] != nil {
		panic(fmt.Sprintf("channel: node %d already attached", i))
	}
	c.radios[i] = r
}

// Reset returns the channel to its initial state over a (possibly new)
// link table of the same size and radio parameters, keeping the attached
// radios and the arrival free list. Session pooling uses it to rebind a
// long-lived channel to the next Monte-Carlo round's topology.
func (c *Channel) Reset(links *LinkTable) {
	if links.n != c.links.n {
		panic(fmt.Sprintf("channel: Reset with %d-node link table, channel has %d", links.n, c.links.n))
	}
	lp, rp := links.Params(), c.links.Params()
	if lp.TxPower != rp.TxPower || lp.RXThresh != rp.RXThresh ||
		lp.CSThresh != rp.CSThresh || lp.BitRate != rp.BitRate ||
		lp.Model.Name() != rp.Model.Name() {
		panic("channel: Reset with different radio parameters")
	}
	c.links = links
	for i := range c.state {
		st := &c.state[i]
		st.busySignals = 0
		st.transmitting = false
		st.txPkt = nil
		for k := range st.active {
			st.active[k] = nil
		}
		st.active = st.active[:0]
	}
	c.uid = 0
	c.stats = Stats{}
	for i := range c.geBad {
		c.geBad[i] = 0
	}
	for i := range c.degraded {
		c.degraded[i] = false
	}
}

// Busy reports whether node i currently senses the medium busy.
func (c *Channel) Busy(i int) bool { return c.state[i].busySignals > 0 }

// Stats returns a copy of the channel counters.
func (c *Channel) Stats() Stats { return c.stats }

// Duration returns the on-air time of a frame of the given size.
func (c *Channel) Duration(sizeBytes int) sim.Time {
	return sim.Seconds(c.links.params.TxDuration(sizeBytes))
}

// NeighborCount returns the number of decode-range neighbors of node i
// (used by tests and diagnostics).
func (c *Channel) NeighborCount(i int) int { return len(c.links.rx[i]) }

// newArrival takes an arrival record from the free list (or allocates).
func (c *Channel) newArrival(p *packet.Packet) *arrival {
	if n := len(c.arrFree); n > 0 {
		a := c.arrFree[n-1]
		c.arrFree[n-1] = nil
		c.arrFree = c.arrFree[:n-1]
		a.pkt = p
		a.collided = false
		a.aborted = false
		return a
	}
	return &arrival{ch: c, pkt: p}
}

// freeArrival returns a resolved arrival to the free list.
func (c *Channel) freeArrival(a *arrival) {
	a.pkt = nil
	c.arrFree = append(c.arrFree, a)
}

// Package-level event callbacks: scheduling through sim.AfterCall with a
// pre-existing func value and pointer arguments keeps the hot path free of
// per-event closure allocations.
var (
	txEndCB = func(arg any, i int) {
		c := arg.(*Channel)
		st := &c.state[i]
		st.transmitting = false
		if p := st.txPkt; p != nil {
			st.txPkt = nil
			c.cfg.Pool.Release(p)
		}
		c.signalEnd(i)
	}
	sigStartCB = func(arg any, i int) { arg.(*Channel).signalStart(i) }
	sigEndCB   = func(arg any, i int) { arg.(*Channel).signalEnd(i) }
	arrStartCB = func(arg any, i int) {
		a := arg.(*arrival)
		a.ch.startArrival(i, a)
	}
	arrEndCB = func(arg any, i int) {
		a := arg.(*arrival)
		a.ch.endArrival(i, a)
	}
	// Fused callbacks for decodable links: a receiver inside the decode
	// disc is also inside the CS disc, and its carrier edge and arrival
	// edge land at the same instant — one event does both, halving the
	// per-receiver event count. The intra-node order (carrier first, then
	// arrival) matches the order the split events fired in: within one
	// transmission's fan the sequence numbers are contiguous, so the only
	// events that sat between a node's signal and arrival edges were other
	// nodes' edges from the same fan, which commute with this node's.
	sigArrStartCB = func(arg any, i int) {
		a := arg.(*arrival)
		a.ch.signalStart(i)
		a.ch.startArrival(i, a)
	}
	sigArrEndCB = func(arg any, i int) {
		a := arg.(*arrival)
		a.ch.signalEnd(i)
		a.ch.endArrival(i, a)
	}
)

// Transmit puts a frame on the air from node i and returns its on-air
// duration. The caller (MAC) must not start a second transmission from the
// same node before the returned duration elapses.
func (c *Channel) Transmit(i int, p *packet.Packet) sim.Time {
	dur := c.transmitInto(i, p)
	c.sim.ScheduleBatch(&c.batch)
	return dur
}

// TransmitThen transmits like Transmit and additionally schedules
// cb(arg, argi) at the moment the transmission ends, riding in the same
// bulk insertion as the channel's own events. MACs use it for their
// tx-done timer: the callback is appended after every channel event, so
// the (at, seq) order is bit-identical to calling Transmit and then
// AfterCall(dur, ...) — but the whole fan costs one ScheduleBatch. No
// handle is returned; the callback cannot be cancelled.
func (c *Channel) TransmitThen(i int, p *packet.Packet, cb sim.Callback, arg any, argi int) sim.Time {
	dur := c.transmitInto(i, p)
	c.batch.AfterCall(dur, cb, arg, argi)
	c.sim.ScheduleBatch(&c.batch)
	return dur
}

// transmitInto stages the whole per-link event fan of one transmission —
// tx end, carrier sense edges, frame arrivals — into c.batch. The
// timestamps are all computed here together, so the ladder queue places
// them with O(1) bucket appends in one bulk insertion instead of
// per-event scheduling.
func (c *Channel) transmitInto(i int, p *packet.Packet) sim.Time {
	st := &c.state[i]
	if st.transmitting {
		panic(fmt.Sprintf("channel: node %d transmit while transmitting", i))
	}
	c.uid++
	p.UID = c.uid
	c.stats.Transmissions++
	if c.OnAir != nil {
		c.OnAir(i, p)
	}
	dur := c.Duration(p.Size)

	// Half-duplex: transmitting kills any reception in progress here.
	st.transmitting = true
	for _, a := range st.active {
		if !a.aborted {
			a.aborted = true
			c.stats.HalfDuplex++
		}
	}
	// The node senses its own signal.
	c.signalStart(i)
	c.batch.AfterCall(dur, txEndCB, c, i)

	// One pass over the CS disc, walking the rx list (a subset, both
	// ascending by destination) in lockstep. A node that decodes the frame
	// gets one fused carrier+arrival event per edge; a node that only
	// senses it gets plain carrier events. With shadowing enabled the
	// arrival candidates widen to the whole carrier disc and each link
	// rolls its own fading draw, in CS-list order (the same draw order as
	// the separate arrival loop this replaces).
	shadow := c.cfg.ShadowingSigmaDB > 0
	lossy := c.loss != nil || c.degraded != nil
	rxl := c.links.rx[i]
	ri := 0
	refs := int32(1) // the tx-end event
	for _, l := range c.links.cs[i] {
		inRX := ri < len(rxl) && rxl[ri].to == l.to
		if inRX {
			ri++
		}
		// The loss model sits after decodability: a frame the PHY could
		// decode is corrupted link by link (chain step + degradation
		// draws, in CS-list order), and a dropped frame still occupies the
		// medium — the receiver senses carrier without getting a packet.
		if (inRX || shadow) && c.decodable(l) && (!lossy || c.linkUp(i, l.to)) {
			a := c.newArrival(p)
			refs++
			c.batch.AfterCall(l.delay, sigArrStartCB, a, l.to)
			c.batch.AfterCall(l.delay+dur, sigArrEndCB, a, l.to)
		} else {
			c.batch.AfterCall(l.delay, sigStartCB, c, l.to)
			c.batch.AfterCall(l.delay+dur, sigEndCB, c, l.to)
		}
	}
	if c.cfg.Pool != nil {
		c.cfg.Pool.Hold(p, refs)
		st.txPkt = p
	}
	return dur
}

func (c *Channel) signalStart(i int) {
	st := &c.state[i]
	st.busySignals++
	if st.busySignals == 1 && c.radios[i] != nil {
		c.radios[i].CarrierChanged(true)
	}
}

func (c *Channel) signalEnd(i int) {
	st := &c.state[i]
	st.busySignals--
	if st.busySignals < 0 {
		panic("channel: negative busy count")
	}
	if st.busySignals == 0 && c.radios[i] != nil {
		c.radios[i].CarrierChanged(false)
	}
}

func (c *Channel) startArrival(i int, a *arrival) {
	st := &c.state[i]
	if st.transmitting {
		a.aborted = true
		c.stats.HalfDuplex++
	}
	if !c.cfg.DisableCollisions && len(st.active) > 0 {
		// Overlap: the new frame and every frame in flight are lost.
		if !a.collided {
			a.collided = true
			c.stats.Collisions++
		}
		for _, other := range st.active {
			if !other.collided {
				other.collided = true
				c.stats.Collisions++
			}
		}
	}
	st.active = append(st.active, a)
}

func (c *Channel) endArrival(i int, a *arrival) {
	st := &c.state[i]
	for k, other := range st.active {
		if other == a {
			// Shift the tail down and nil the vacated slot: truncating alone
			// would leave the backing array holding a dead *arrival past the
			// slice length, pinning the packet until the slice regrows.
			n := len(st.active) - 1
			copy(st.active[k:], st.active[k+1:])
			st.active[n] = nil
			st.active = st.active[:n]
			break
		}
	}
	collided, aborted, pkt := a.collided, a.aborted, a.pkt
	c.freeArrival(a)
	if collided || aborted {
		if c.cfg.Pool != nil {
			c.cfg.Pool.Release(pkt)
		}
		return
	}
	c.stats.Deliveries++
	if c.OnDeliver != nil {
		c.OnDeliver(i, pkt)
	}
	if c.radios[i] != nil {
		c.radios[i].FrameReceived(pkt)
	}
	if c.cfg.Pool != nil {
		c.cfg.Pool.Release(pkt)
	}
}
