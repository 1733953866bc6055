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
	stdbits "math/bits"
	"slices"

	"mtmrp/internal/packet"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/sparse"
)

// Radio is the node-side carrier-sense endpoint the channel talks to
// (implemented by the MAC layer). Decoded frames do not pass through it:
// they go to the Channel.Deliver hook.
type Radio interface {
	// CarrierChanged notifies busy/idle transitions of the local medium
	// while the radio listens (Channel.Listen). A radio that has stopped
	// listening is told of none; it reads the medium with Channel.Busy
	// instead.
	CarrierChanged(busy bool)
}

// arrival tracks one frame in flight toward one receiver. It lives inside
// its transmission's fan record (member.arr), so a steady-state
// transmission allocates nothing per neighbor.
type arrival struct {
	pkt      *packet.Packet
	collided bool
	aborted  bool // receiver transmitted during reception
}

// fan is one transmission's carrier-sense fan, staged by fanOut and
// consumed by its start and end cursors: mem holds the CS neighbors
// sorted by (propagation delay, CS index), and offs[j] is mem[j]'s delay.
// The cursors run only the eager members, whose positions in mem are
// listed in run; the other members are folded into spans at their nodes,
// and their mem and offs entries are left unset.
// Members copy the destination out of the link table and carry their own
// arrival, so a DynamicLinkTable.Move while the frame is in flight —
// which edits the link lists in place — cannot reach it. Fans are pooled
// by the channel and recycled after their last end call, or at once when
// no member is eager.
type fan struct {
	c     *Channel
	left  int // end calls not yet run
	mem   []member
	offs  []sim.Time
	run   []int    // positions of the eager members, ascending
	eager []uint64 // bit set of the eager members' positions, staged by fanOut
}

// member is one CS neighbor of a fan.
type member struct {
	to  int32
	rx  bool    // decodes the frame: arr is live
	arr arrival // the frame in flight toward to, when rx
}

// span is one folded fan member: a carrier signal at a node that did not
// listen when the frame went on the air, starting at (start, sseq) and
// ending at (end, eseq) in the simulator's (at, seq) order, with neither
// edge queued. Member seqs are never 0 (the tx-end event takes the first
// seq of a batch), so the zero span is an empty slot.
type span struct {
	start, end sim.Time
	sseq, eseq uint64
}

// over reports whether the span is empty or has ended at (now, cur).
func (sp *span) over(now sim.Time, cur uint64) bool {
	return sp.eseq == 0 || before(sp.end, sp.eseq, now, cur)
}

// before reports whether the key (at, seq) precedes the position
// (now, cur) in the simulator's order.
func before(at sim.Time, seq uint64, now sim.Time, cur uint64) bool {
	return at < now || at == now && seq < cur
}

// spanRec is a span on a node's overflow list.
type spanRec struct {
	span
	next int32 // 1 + index into Channel.spans of the next record; 0 ends the list
}

// nodeState is the per-node radio state machine.
type nodeState struct {
	// A folded signal here is held in sp, in the node's own record, which
	// the fan that folds it reads anyway for deaf; the rare signals that
	// overlap a live one go on the overflow list headed by spans (1 +
	// index into Channel.spans; 0: empty).
	sp           span
	txPkt        *packet.Packet // frame on the air (release at tx end)
	active       []*arrival     // frames currently arriving within decode range
	busySignals  int32          // signals sensed whose edges run as events (including own transmission)
	spans        int32
	deaf         bool // the radio does not listen to carrier edges (Listen)
	transmitting bool
}

// Stats counts channel-level outcomes for diagnostics and tests.
type Stats struct {
	Transmissions uint64 // frames put on the air
	Deliveries    uint64 // successful frame receptions
	Collisions    uint64 // receptions lost to overlap
	HalfDuplex    uint64 // receptions lost because the receiver was transmitting
	LossDrops     uint64 // receptions lost to the Gilbert–Elliott chain
	DegradeDrops  uint64 // receptions lost to a degraded endpoint
	FanSorts      uint64 // fan orders sorted: cache misses of fanOrder
	FanCalls      uint64 // carrier and arrival edges run by fan cursors
	Folded        uint64 // carrier edges folded: two per member at a node not listening
	Materialised  uint64 // folded edges queued after all, when their node began to listen
	Notified      uint64 // carrier edges handed to a listening radio (CarrierChanged calls)
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

	// EagerCarrier runs every carrier edge as an event, whether or not
	// its node listens (Listen): the fan as it was before carrier sense
	// turned lazy, kept as the reference the lazy fan is tested against.
	// A run's results are the same either way; only its cost differs.
	EagerCarrier bool

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

	batch   sim.Batch // per-transmission entries, flushed by ScheduleBatch
	fanFree []*fan    // recycled fan records

	// spans holds the nodes' overflow lists of folded signals, headed by
	// nodeState.spans; spanFree heads the list of free records the same
	// way, so the store grows only with the signals live at once.
	spans    []spanRec
	spanFree int32

	// Fan-order cache (fanOrder): rank[i][k] is the position of cs[i][k]
	// in node i's fan, sorted by (delay, CS index). It is valid while
	// rankVer[i] == links.version(i)+1; rankVer[i] == 0 means never
	// computed. fanKeys is the sorting scratch.
	rank    [][]int32
	rankVer []uint64
	fanKeys []uint64

	// Loss-model state. loss is the active config (nil = off); geBad maps
	// a directed link (from*n+to) to 1 while its chain is in the Bad state
	// — a sparse map, so it grows with the links frames actually cross,
	// not with n²; degraded flags nodes hit by a link-degradation fault
	// event. All of it is lazily allocated and rewound by Reset, so
	// lossless simulations pay nothing.
	loss     *LossConfig
	geBad    sparse.Map
	degraded []bool

	// OnAir, if set, observes every transmission (for metrics/tracing).
	OnAir func(from int, p *packet.Packet)
	// Deliver, if set, receives every successfully decoded frame, at its
	// receiver, before the channel releases it to the pool: it is the
	// whole receive path, installed by the layer above the channel
	// (internal/network), and the frame must not be retained.
	Deliver func(to int, p *packet.Packet)
}

// NewWithTable builds a channel over a precomputed (and possibly shared)
// link table. The table is read-only to the channel.
func NewWithTable(s *sim.Simulator, links *LinkTable, cfg Config) *Channel {
	if cfg.ShadowingSigmaDB > 0 && cfg.Rand == nil {
		panic("channel: shadowing requires a random source")
	}
	c := &Channel{
		sim:     s,
		links:   links,
		cfg:     cfg,
		radios:  make([]Radio, links.n),
		state:   make([]nodeState, links.n),
		rank:    make([][]int32, links.n),
		rankVer: make([]uint64, links.n),
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
	c.geBad.Reset()
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
		key := uint64(i)*uint64(c.links.n) + uint64(j)
		v, _ := c.geBad.Get(key)
		bad := v != 0
		// Step the chain, then apply the (new) state's drop probability:
		// a Good->Bad transition corrupts the frame that triggered it,
		// which is what makes back-to-back losses bursty.
		if bad {
			if c.cfg.LossRand.Bool(l.PBadGood) {
				bad = false
				c.geBad.Put(key, 0)
			}
		} else if c.cfg.LossRand.Bool(l.PGoodBad) {
			bad = true
			c.geBad.Put(key, 1)
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
// radios and whether each listens (the radios own that), the fan free
// list and, when links is the table the channel already holds, the
// cached fan orders. Folded signals are dropped. Session pooling uses it to rebind
// a long-lived channel to the next Monte-Carlo round's topology.
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
	// The old table is still held here, so a different table cannot
	// share its address: pointer equality means the same table, whose
	// versions keep the cached orders honest.
	if links != c.links {
		clear(c.rankVer)
	}
	c.links = links
	c.spans = c.spans[:0]
	c.spanFree = 0
	for i := range c.state {
		st := &c.state[i]
		st.busySignals = 0
		st.sp = span{}
		st.spans = 0
		st.transmitting = false
		st.txPkt = nil
		for k := range st.active {
			st.active[k] = nil
		}
		st.active = st.active[:0]
	}
	c.uid = 0
	c.stats = Stats{}
	c.geBad.Reset()
	for i := range c.degraded {
		c.degraded[i] = false
	}
}

// AdoptIdle gives c the run state of src, a channel of the same size
// with nothing on the air: the frame uid counter, the statistics, the
// loss chains' Bad states and the degraded flags. FanSorts stays c's own,
// since it counts c's fan-order cache misses. Call it after Reset, with
// the same loss model installed on both. The radios, fan pool and
// fan-order cache are c's and are not touched.
func (c *Channel) AdoptIdle(src *Channel) {
	if src.links.n != c.links.n {
		panic(fmt.Sprintf("channel: AdoptIdle from a %d-node channel, channel has %d", src.links.n, c.links.n))
	}
	for i := range src.state {
		if st := &src.state[i]; st.busySignals != 0 || st.transmitting {
			panic(fmt.Sprintf("channel: AdoptIdle from a busy channel (node %d)", i))
		}
	}
	c.uid = src.uid
	sorts := c.stats.FanSorts
	c.stats = src.stats
	c.stats.FanSorts = sorts
	c.geBad.CopyFrom(&src.geBad)
	if src.degraded == nil {
		clear(c.degraded)
		return
	}
	if c.degraded == nil {
		c.degraded = make([]bool, c.links.n)
	}
	copy(c.degraded, src.degraded)
}

// Busy reports whether node i currently senses the medium busy: a
// signal whose edges run as events, or a folded one that has started and
// not ended at the simulator's position (Now, Seq).
func (c *Channel) Busy(i int) bool {
	st := &c.state[i]
	if st.busySignals > 0 {
		return true
	}
	now, cur := c.sim.Now(), c.sim.Seq()
	if !st.sp.over(now, cur) && before(st.sp.start, st.sp.sseq, now, cur) {
		return true
	}
	c.prune(i, now, cur)
	for k := st.spans; k != 0; k = c.spans[k-1].next {
		if sp := &c.spans[k-1]; before(sp.start, sp.sseq, now, cur) {
			return true
		}
	}
	return false
}

// Listen tells the channel whether node i's radio listens to carrier
// edges; a radio listens until it says otherwise. While a node does not
// listen, its radio is told of no carrier edge, and the fan members at it
// that do not decode their frame are folded (fanOut): their edges never
// run, and Busy alone reports them. A
// MAC stops listening when no carrier edge can change what it does, and
// starts again before it reads Busy to contend. Starting queues the
// node's live folded edges under the keys they were folded with: an edge
// still to come runs where it would have, and a signal already under way
// counts as sensed. So from then on the node sees every edge the eager
// fan would have shown it, at the same key, and the carrier transitions
// it is told of are exactly the eager fan's. With Config.EagerCarrier
// the call does nothing.
func (c *Channel) Listen(i int, on bool) {
	if c.cfg.EagerCarrier {
		return
	}
	st := &c.state[i]
	st.deaf = !on
	if !on {
		return
	}
	now, cur := c.sim.Now(), c.sim.Seq()
	if st.sp.eseq != 0 {
		c.materialise(i, &st.sp, now, cur)
		st.sp = span{}
	}
	for k := st.spans; k != 0; {
		r := &c.spans[k-1]
		c.materialise(i, &r.span, now, cur)
		next := r.next
		r.next = c.spanFree
		c.spanFree = k
		k = next
	}
	st.spans = 0
}

// materialise queues what is left of node i's folded signal sp at the
// position (now, cur): nothing once it has ended, its end edge while it
// is under way (the signal then counts as sensed), both edges before it
// starts.
func (c *Channel) materialise(i int, sp *span, now sim.Time, cur uint64) {
	switch {
	case before(sp.end, sp.eseq, now, cur):
	case before(sp.start, sp.sseq, now, cur):
		c.state[i].busySignals++
		c.sim.AtSeq(sp.end, sp.eseq, spanEndCB, c, i)
		c.stats.Materialised++
	default:
		c.sim.AtSeq(sp.start, sp.sseq, spanStartCB, c, i)
		c.sim.AtSeq(sp.end, sp.eseq, spanEndCB, c, i)
		c.stats.Materialised += 2
	}
}

// overflow files sp, a signal folded at node i whose slot holds a signal
// that has not ended at (now, cur), on the node's overflow list. The list
// drops its ended signals first, so it holds only signals that overlap
// in time.
func (c *Channel) overflow(i int, sp span, now sim.Time, cur uint64) {
	st := &c.state[i]
	c.prune(i, now, cur)
	k := c.spanFree
	if k != 0 {
		c.spanFree = c.spans[k-1].next
	} else {
		c.spans = append(c.spans, spanRec{})
		k = int32(len(c.spans))
	}
	c.spans[k-1] = spanRec{span: sp, next: st.spans}
	st.spans = k
}

// prune frees the signals on node i's overflow list that have ended at
// (now, cur).
func (c *Channel) prune(i int, now sim.Time, cur uint64) {
	for link := &c.state[i].spans; *link != 0; {
		k := *link
		r := &c.spans[k-1]
		if !r.over(now, cur) {
			link = &r.next
			continue
		}
		*link = r.next
		r.next = c.spanFree
		c.spanFree = k
	}
}

// Stats returns a copy of the channel counters.
func (c *Channel) Stats() Stats { return c.stats }

// Duration returns the on-air time of a frame of the given size.
func (c *Channel) Duration(sizeBytes int) sim.Time {
	return sim.Seconds(c.links.params.TxDuration(sizeBytes))
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
	// A fan member's carrier edge and, when it decodes, its arrival edge
	// land at the same instant; one call does both, carrier first. Within
	// one transmission's fan the only calls that fall between a member's
	// two edges are other members' edges, which commute with them.
	fanStartCB = func(arg any, k int) {
		f := arg.(*fan)
		m := &f.mem[k]
		f.c.stats.FanCalls++
		f.c.signalStart(int(m.to))
		if m.rx {
			f.c.startArrival(int(m.to), &m.arr)
		}
	}
	fanEndCB = func(arg any, k int) {
		f := arg.(*fan)
		m := &f.mem[k]
		c := f.c
		c.stats.FanCalls++
		c.signalEnd(int(m.to))
		if m.rx {
			c.endArrival(int(m.to), &m.arr)
		}
		if f.left--; f.left == 0 {
			c.fanFree = append(c.fanFree, f)
		}
	}
	// A folded edge queued after all (Listen).
	spanStartCB = func(arg any, i int) { arg.(*Channel).signalStart(i) }
	spanEndCB   = func(arg any, i int) { arg.(*Channel).signalEnd(i) }
)

// Transmit puts a frame on the air from node i and returns its on-air
// duration. The caller (MAC) must not start a second transmission from the
// same node before the returned duration elapses.
func (c *Channel) Transmit(i int, p *packet.Packet) sim.Time {
	return c.transmit(i, p, nil, nil, 0)
}

// TransmitThen transmits like Transmit and additionally schedules
// cb(arg, argi) at the moment the transmission ends, riding in the same
// bulk insertion as the channel's own events. MACs use it for their
// tx-done timer: the callback is appended after every channel event, so
// the (at, seq) order is bit-identical to calling Transmit and then
// AfterCall(dur, ...) — but the whole fan costs one ScheduleBatch. No
// handle is returned; the callback cannot be cancelled.
func (c *Channel) TransmitThen(i int, p *packet.Packet, cb sim.Callback, arg any, argi int) sim.Time {
	return c.transmit(i, p, cb, arg, argi)
}

// transmit stages one transmission into c.batch — the tx-end event, the
// carrier-sense fan as one start cursor and one end cursor (fanOut), and
// then(arg, argi) at the end if then is set — and flushes it.
func (c *Channel) transmit(i int, p *packet.Packet, then sim.Callback, arg any, argi int) sim.Time {
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
	// Nothing runs between here and the flush, so the tx-end event takes
	// the next seq and the fan's cursors the ones after it.
	seq := c.sim.NextSeq() + 1
	c.batch.AfterCall(dur, txEndCB, c, i)

	refs := int32(1) // the tx-end event
	if cs := c.links.cs[i]; len(cs) > 0 {
		refs += c.fanOut(i, p, dur, cs, seq)
	}
	if c.cfg.Pool != nil {
		c.cfg.Pool.Hold(p, refs)
		st.txPkt = p
	}
	if then != nil {
		c.batch.AfterCall(dur, then, arg, argi)
	}
	c.sim.ScheduleBatch(&c.batch)
	return dur
}

// fanOut stages node i's carrier-sense fan into a pooled fan record,
// in node i's fan order (fanOrder: sorted by propagation delay, then CS
// index), and appends two cursors to c.batch over its eager members:
// the start edges, each at its delay, and the end edges, each at its
// delay + dur; the start cursor's seqs begin at seq. It returns the
// number of arrivals staged. Every transmission takes at most two queue
// entries for its whole fan, however many distinct delays the fan has,
// and none when no member is eager.
//
// A member is eager when it decodes the frame (its arrival must run) or
// its node listens (Listen). The rest are folded: each is filed at its
// node as a span keyed as its two edges would have been, in the node's
// slot or, if that holds a live signal, on its overflow list, and
// counted as run (sim.Simulator.Fold). The test comes after the draws, so
// a frame lost to shadowing or the loss model folds like one from outside
// the decode disc. Both cursors reserve a seq for every member, folded
// or not, so each member keeps the key it would have had in a fan with
// no folding. A fan with no eager member queues nothing and goes straight
// back to the pool.
//
// Why the execution order is exactly that of one start and one end event
// per link, appended in CS-list order:
//   - ScheduleBatch reserves each cursor the contiguous seqs its calls
//     would get as single appends, and a cursor is always queued under
//     its next call's exact (at, seq). The ladder's tiers are a strict
//     partition by at, so it pops any key, old seq or new, in exact
//     (at, seq) order (sim.Batch.AfterCursor).
//   - Within one timestamp, the per-link fan runs its starts (and its
//     ends) in CS-list order. Sorting by (delay, CS index) keeps that
//     order among equal delays, and their reserved seqs ascend with it.
//   - Every frame outlasts every delay (asserted below: frames carry
//     192 µs of PLCP, CS-disc delays are below 0.3 µs). So no start edge
//     shares a timestamp with an end edge, which lets the two cursors
//     hold their seqs as two blocks where the per-link fan interleaved
//     them link by link. No start shares a timestamp with the tx-end
//     event either; a zero-delay end does, and queues behind it as
//     before, since tx-end is appended first.
//   - Both cursors read f.run and f.offs, which stay intact until the
//     last end call has run: the fan is recycled only by that call, after
//     the simulator has dropped its cursor.
//   - A folded member's edges run only once its node listens again, and
//     then under the keys its cursors reserved for them (Listen). Until
//     then they would only count the node's carrier, which Busy reads
//     from the span at the simulator's position: a radio that does not
//     listen is told of no edge (signalStart). DESIGN.md §20.
//
// One pass walks the CS list in destination order, so the loss,
// shadowing and degradation draws keep their order, and files each
// link's destination, delay and fate at its cached rank. The sort runs
// only when node i's links have changed since its last transmission.
func (c *Channel) fanOut(i int, p *packet.Packet, dur sim.Time, cs []link, seq uint64) int32 {
	rank := c.fanOrder(i, cs)
	f := c.newFan(len(cs))
	// A link flagged rx lies inside the decode disc. With shadowing
	// enabled the arrival candidates widen to the whole carrier disc and
	// each link rolls its own fading draw. The loss model sits after
	// decodability: a frame the PHY could decode is corrupted link by
	// link (chain step + degradation draws), and a dropped frame still
	// occupies the medium — the receiver senses carrier without getting a
	// packet.
	shadow := c.cfg.ShadowingSigmaDB > 0
	lossy := c.loss != nil || c.degraded != nil
	now, cur := c.sim.Now(), c.sim.Seq()
	n := uint64(len(cs))
	var arrivals int32
	folded, last := 0, sim.Time(0)
	for k, l := range cs {
		to, delay := l.to(), l.delay()
		if delay >= dur {
			panic(fmt.Sprintf("channel: %v frame does not outlast the %v propagation delay from node %d to %d",
				dur, delay, i, to))
		}
		j := rank[k]
		rx := (l.rx() || shadow) && c.decodable(l) && (!lossy || c.linkUp(i, to))
		if st := &c.state[to]; !rx && st.deaf {
			sp := span{start: now + delay, end: now + dur + delay, sseq: seq + uint64(j), eseq: seq + n + uint64(j)}
			if st.sp.over(now, cur) {
				st.sp = sp
			} else {
				c.overflow(to, sp, now, cur)
			}
			folded++
			last = max(last, delay)
			continue
		}
		f.eager[j>>6] |= 1 << (j & 63)
		f.offs[j] = delay
		m := &f.mem[j]
		m.to = int32(to)
		m.rx = rx
		if rx {
			m.arr = arrival{pkt: p}
			arrivals++
		}
	}
	// The eager members in fan order, through the bit set.
	for w, bits := range f.eager {
		for bits != 0 {
			j := w<<6 | stdbits.TrailingZeros64(bits)
			bits &= bits - 1
			f.run = append(f.run, j)
		}
	}
	f.left = len(f.run)
	if len(f.run) > 0 {
		c.batch.AfterCursor(0, fanStartCB, f, 0, f.offs, f.run)
		c.batch.AfterCursor(dur, fanEndCB, f, 0, f.offs, f.run)
	} else {
		c.batch.Reserve(2 * len(cs))
		c.fanFree = append(c.fanFree, f)
	}
	if folded > 0 {
		c.sim.Fold(2*folded, now+dur+last)
		c.stats.Folded += 2 * uint64(folded)
	}
	return arrivals
}

// fanOrder returns node i's fan order, rank[k] being the position of
// cs[k] when the CS links are sorted by (delay, CS index). It sorts only
// when the cached order is missing or older than node i's links.
func (c *Channel) fanOrder(i int, cs []link) []int32 {
	ver := c.links.version(i) + 1
	if c.rankVer[i] == ver {
		return c.rank[i]
	}
	c.stats.FanSorts++
	// Pack (delay, CS index) in one key: delays in ns fit 32 bits many
	// times over (2^32 ns is 1.3 million km of propagation).
	keys := c.fanKeys[:0]
	for k, l := range cs {
		keys = append(keys, uint64(l.delayNS)<<32|uint64(k))
	}
	slices.Sort(keys)
	rank := c.rank[i]
	if cap(rank) < len(cs) {
		rank = make([]int32, len(cs))
	}
	rank = rank[:len(cs)]
	for j, key := range keys {
		rank[uint32(key)] = int32(j)
	}
	c.fanKeys = keys
	c.rank[i] = rank
	c.rankVer[i] = ver
	return rank
}

// newFan takes a fan record for n members from the free list (or builds
// one).
func (c *Channel) newFan(n int) *fan {
	var f *fan
	if k := len(c.fanFree); k > 0 {
		f = c.fanFree[k-1]
		c.fanFree = c.fanFree[:k-1]
	} else {
		f = &fan{c: c}
	}
	if cap(f.mem) < n {
		f.mem = make([]member, n)
		f.offs = make([]sim.Time, n)
		f.run = make([]int, 0, n)
		f.eager = make([]uint64, (n+63)/64)
	}
	f.mem = f.mem[:n]
	f.offs = f.offs[:n]
	f.run = f.run[:0]
	f.eager = f.eager[:(n+63)/64]
	clear(f.eager)
	return f
}

// signalStart and signalEnd count a signal at node i in and out. A
// listening radio is told of the 0↔1 edges of the count; one that does
// not listen is told of none (Listen), so a reception at a deaf node does
// not load its radio at all.
func (c *Channel) signalStart(i int) {
	st := &c.state[i]
	st.busySignals++
	if st.busySignals == 1 && !st.deaf && c.radios[i] != nil {
		c.stats.Notified++
		c.radios[i].CarrierChanged(true)
	}
}

func (c *Channel) signalEnd(i int) {
	st := &c.state[i]
	st.busySignals--
	if st.busySignals < 0 {
		panic("channel: negative busy count")
	}
	if st.busySignals == 0 && !st.deaf && c.radios[i] != nil {
		c.stats.Notified++
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
	a.pkt = nil // the fan record outlives the frame; do not pin it
	if collided || aborted {
		if c.cfg.Pool != nil {
			c.cfg.Pool.Release(pkt)
		}
		return
	}
	c.stats.Deliveries++
	if c.Deliver != nil {
		c.Deliver(i, pkt)
	}
	if c.cfg.Pool != nil {
		c.cfg.Pool.Release(pkt)
	}
}
