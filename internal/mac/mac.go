// Package mac implements the medium-access layer between routing protocols
// and the shared channel. It is the transmit side only: the channel hands
// decoded frames to the network layer directly (channel.Channel.Deliver),
// and a MAC hears carrier edges only while it contends.
//
// CSMA is an IEEE 802.11-style DCF for broadcast frames: carrier sense,
// DIFS, and a slotted random backoff that freezes while the medium is busy.
// Broadcast frames have no RTS/CTS, no ACK and no retransmission — exactly
// the service ns-2's Mac/802_11 gives the paper's control floods.
//
// Ideal is a zero-contention MAC that transmits immediately (serialised per
// node); combined with channel.Config.DisableCollisions it yields fully
// deterministic protocol unit tests.
package mac

import (
	"fmt"
	"slices"

	"mtmrp/internal/channel"
	"mtmrp/internal/packet"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
)

// MAC is the service a routing protocol sees. It is the transmit side
// only: decoded frames go from the channel to the routing layer through
// channel.Channel.Deliver without passing through the MAC.
type MAC interface {
	// Send queues a frame for (broadcast) transmission.
	Send(p *packet.Packet)
	// Reset returns the MAC to its initial state (empty queue, idle,
	// reseeded from the node's substream) for session reuse. The owning
	// simulator must have been reset first: pending timer handles are
	// discarded, not cancelled.
	Reset(parent *rng.RNG)
	// AdoptIdle gives the MAC, just Reset, the state of src, a MAC of
	// the same kind that is idle (no frame queued or in contention,
	// carrier idle): its counters and random stream. It panics if src is
	// busy.
	AdoptIdle(src MAC)
}

// CSMAConfig carries the 802.11 DCF timing constants. DefaultCSMAConfig
// gives the standard DSSS values.
type CSMAConfig struct {
	SlotTime sim.Time // backoff slot (DSSS: 20 us)
	DIFS     sim.Time // DCF inter-frame space (DSSS: 50 us)
	CW       int      // contention window in slots (broadcast: fixed CWmin)
	MaxQueue int      // transmit queue bound; overflow drops the newest frame
}

// DefaultCSMAConfig returns 802.11 DSSS timings.
func DefaultCSMAConfig() CSMAConfig {
	return CSMAConfig{
		SlotTime: 20 * sim.Microsecond,
		DIFS:     50 * sim.Microsecond,
		CW:       32,
		MaxQueue: 64,
	}
}

// csmaState enumerates the DCF stages.
type csmaState uint8

const (
	csmaIdle    csmaState = iota // nothing to send
	csmaDefer                    // waiting for the medium to go idle
	csmaDIFS                     // medium idle, waiting out DIFS with no backoff left
	csmaBackoff                  // DIFS and every backoff slot but the last on one timer
	csmaLast                     // last backoff slot, linked into its Countdowns group
	csmaTx                       // frame on the air
)

// CSMA is the contention MAC. One instance per node.
//
// A contention attempt runs on one timer, the way ns-2's Mac/802_11
// pauses and resumes a single backoff timer, not on one event per slot.
// With n slots to count down once the medium goes idle at t0, DIFS ends
// at t0+DIFS and the attempt expires n slots later, at T. n = 0 (a fresh
// frame, or a backoff already run down) transmits when DIFS ends. For
// n >= 1 the attempt takes two queue entries: the pre-expiry one slot
// before T, keyed at t0, and the expiry it schedules. The expiry thus
// takes its sequence number one slot before it fires, as the last tick
// of a per-slot countdown did. At its pre-expiry the MAC joins its
// channel's Countdowns group for T, where the countdowns expiring
// together line up in the order the per-slot ticks would have run them:
// the most recently started first. A carrier-busy edge freezes the
// attempt and spends the slots whose boundaries have passed. Processed
// counts the ticks the timer folds away (sim.Simulator.Elide), so event
// counts stay those of a per-slot countdown. DESIGN.md §19 gives the
// rules and why they reproduce the per-slot order.
//
// The MAC listens to carrier edges (channel.Channel.Listen) only while it
// contends — deferring, in DIFS or counting down — since an edge changes
// nothing while it is idle or sending; it reads the medium with
// channel.Channel.Busy when it starts contending. DESIGN.md §20.
type CSMA struct {
	sim *sim.Simulator
	ch  *channel.Channel
	cd  *Countdowns
	idx int
	cfg CSMAConfig
	rnd *rng.RNG

	state csmaState
	// queue[head:] is the FIFO transmit queue. Popping advances head
	// instead of reslicing from the front, so the backing array is reused
	// forever once the queue drains back to empty (a [1:] reslice would
	// strand its prefix and force append to reallocate once per frame).
	queue []*packet.Packet
	head  int
	slots int       // backoff slots left when the attempt started (-1: none drawn)
	from  sim.Time  // the attempt's DIFS end, where its first slot starts
	timer sim.Event // pending DIFS, pre-expiry or expiry timer
	// next and prev link the MAC into its Countdowns group (csmaLast).
	next, prev *CSMA
	Dropped    uint64 // frames dropped due to queue overflow
}

// Countdowns holds the backoff countdowns of one channel's CSMA MACs
// that are in their last slot, grouped by the instant they expire. Each
// group is a list kept newest start first, and the first expiry of an
// instant transmits its whole group in that order. The zero value is
// ready to use; build one per channel and hand it to every NewCSMA.
type Countdowns struct {
	groups []*CSMA // group heads, one per expiry instant
}

// join links m, just past its pre-expiry, into the group of its expiry
// instant: after every member that started later or at the same instant
// (an equal start joins in the order its DIFS ended, which is the order
// of the pre-expiries keyed at that start), before every member that
// started earlier.
func (c *Countdowns) join(m *CSMA) {
	at := m.timer.At()
	for i, h := range c.groups {
		if h.timer.At() != at {
			continue
		}
		var prev *CSMA
		for x := h; x != nil && x.from >= m.from; x = x.next {
			prev = x
		}
		if prev == nil {
			m.next, h.prev = h, m
			c.groups[i] = m
			return
		}
		m.prev, m.next = prev, prev.next
		if prev.next != nil {
			prev.next.prev = m
		}
		prev.next = m
		return
	}
	c.groups = append(c.groups, m)
}

// leave unlinks m from its group.
func (c *Countdowns) leave(m *CSMA) {
	if m.prev != nil {
		m.prev.next = m.next
	} else {
		i := slices.Index(c.groups, m)
		if m.next != nil {
			c.groups[i] = m.next
		} else {
			c.remove(i)
		}
	}
	if m.next != nil {
		m.next.prev = m.prev
	}
	m.next, m.prev = nil, nil
}

// remove drops group i.
func (c *Countdowns) remove(i int) {
	last := len(c.groups) - 1
	c.groups[i] = c.groups[last]
	c.groups[last] = nil
	c.groups = c.groups[:last]
}

// expire runs the first expiry of an instant, leader's, which is the
// first its group's members scheduled: it transmits the group in list
// order. Each member's own expiry would have run just before its
// transmission; the leader's has, and the others are cancelled and
// counted as run one per transmission after the first, in the same
// places, so Processed and Pending move exactly as the per-slot ticks
// moved them.
func (c *Countdowns) expire(leader *CSMA) {
	i := 0
	for c.groups[i].timer.At() != leader.timer.At() {
		i++
	}
	head := c.groups[i]
	c.remove(i)
	s := leader.sim
	var owed sim.Event // a sent member's expiry, not yet retired
	for m := head; m != nil; {
		next := m.next
		m.next, m.prev = nil, nil
		own := m.timer
		switch {
		case m == head:
			owed = own
		case owed.Pending():
			s.Cancel(owed)
			s.Elide(1)
			owed = own
		default:
			s.Cancel(own)
			s.Elide(1)
		}
		m.transmit()
		m = next
	}
}

// NewCSMA builds the MAC for node idx and attaches it to the channel. cd
// is the channel's shared Countdowns. The configuration must have DIFS
// longer than SlotTime, as every 802.11 PHY does (DIFS = SIFS + 2 slots):
// the group order relies on it.
func NewCSMA(s *sim.Simulator, ch *channel.Channel, cd *Countdowns, idx int, cfg CSMAConfig, rnd *rng.RNG) *CSMA {
	if cfg.SlotTime <= 0 || cfg.DIFS <= cfg.SlotTime {
		panic(fmt.Sprintf("mac: CSMA needs 0 < SlotTime < DIFS, got slot %v, DIFS %v", cfg.SlotTime, cfg.DIFS))
	}
	m := &CSMA{sim: s, ch: ch, cd: cd, idx: idx, cfg: cfg, rnd: rnd, slots: -1}
	ch.Attach(idx, m)
	ch.Listen(idx, false)
	return m
}

// Reset implements MAC: idle state, empty queue, zero drop counter, and a
// fresh "mac" substream derived in place from parent (the node's reseeded
// generator), bit-identical to the stream a newly built MAC would get. A
// MAC in its last slot leaves its Countdowns group.
func (m *CSMA) Reset(parent *rng.RNG) {
	if m.state == csmaLast {
		m.cd.leave(m)
	}
	for i := range m.queue {
		m.queue[i] = nil
	}
	m.queue = m.queue[:0]
	m.head = 0
	m.state = csmaIdle
	m.slots = -1
	m.from = 0
	m.timer = sim.Event{}
	m.ch.Listen(m.idx, false)
	m.Dropped = 0
	parent.DeriveInto("mac", m.rnd)
}

// AdoptIdle implements MAC.
func (m *CSMA) AdoptIdle(src MAC) {
	s := src.(*CSMA)
	// An idle MAC with an idle carrier holds no backoff: slots are drawn
	// only for a queued frame and cleared when it goes on the air. So s
	// matches the reset m but for its drop counter and stream.
	if s.state != csmaIdle || s.QueueLen() != 0 || s.ch.Busy(s.idx) || s.slots >= 0 {
		panic("mac: AdoptIdle from a busy CSMA")
	}
	m.Dropped = s.Dropped
	*m.rnd = *s.rnd
}

// QueueLen reports the number of frames waiting (for tests).
func (m *CSMA) QueueLen() int { return len(m.queue) - m.head }

// pop removes and returns the head-of-line frame, rewinding the slice to
// reuse its backing array whenever the queue empties.
func (m *CSMA) pop() *packet.Packet {
	p := m.queue[m.head]
	m.queue[m.head] = nil
	m.head++
	if m.head == len(m.queue) {
		m.queue = m.queue[:0]
		m.head = 0
	}
	return p
}

// Send implements MAC.
func (m *CSMA) Send(p *packet.Packet) {
	if m.cfg.MaxQueue > 0 && m.QueueLen() >= m.cfg.MaxQueue {
		m.Dropped++
		return
	}
	m.queue = append(m.queue, p)
	if m.state == csmaIdle {
		m.start()
	}
}

// start begins contention for the head-of-line frame.
func (m *CSMA) start() {
	if m.QueueLen() == 0 {
		m.state = csmaIdle
		return
	}
	if m.state == csmaIdle {
		m.ch.Listen(m.idx, true)
	}
	if m.ch.Busy(m.idx) {
		// 802.11: a frame arriving to a busy medium must draw a random
		// backoff, otherwise every deferring neighbor would fire exactly
		// DIFS after the medium clears and collide.
		if m.slots < 0 {
			m.slots = m.rnd.Intn(m.cfg.CW)
		}
		m.state = csmaDefer // CarrierChanged(false) resumes
		return
	}
	// Medium idle: wait out DIFS, then transmit (a fresh frame: 802.11
	// allows immediate transmission after an idle DIFS, and a random
	// backoff is drawn only after a deferral) or run down the backoff
	// left by an interrupted attempt.
	m.from = m.sim.Now() + m.cfg.DIFS
	if m.slots <= 0 {
		m.state = csmaDIFS
		m.timer = m.sim.AtCall(m.from, csmaSendCB, m, 0)
		return
	}
	m.state = csmaBackoff
	m.timer = m.sim.AtCall(m.from+sim.Time(m.slots-1)*m.cfg.SlotTime, csmaLastSlotCB, m, 0)
}

// Package-level timer callbacks: scheduling through AfterCall with the MAC
// itself as the argument keeps the per-frame hot path free of closure
// allocations (see internal/channel for the same pattern).
func csmaSendCB(arg any, _ int) { arg.(*CSMA).transmit() }

// csmaLastSlotCB is the pre-expiry: it stands for the DIFS end and the
// first slots-1 slot ticks, schedules the expiry and joins the group.
func csmaLastSlotCB(arg any, _ int) {
	m := arg.(*CSMA)
	m.sim.Elide(m.slots - 1)
	m.state = csmaLast
	m.timer = m.sim.AfterCall(m.cfg.SlotTime, csmaExpiryCB, m, 0)
	m.cd.join(m)
}

func csmaExpiryCB(arg any, _ int) {
	m := arg.(*CSMA)
	m.cd.expire(m)
}

func csmaTxDoneCB(arg any, _ int) {
	m := arg.(*CSMA)
	m.state = csmaIdle
	m.start()
}

func idealNextCB(arg any, _ int) { arg.(*Ideal).next() }

func (m *CSMA) transmit() {
	p := m.pop()
	m.state = csmaTx
	m.ch.Listen(m.idx, false)
	m.slots = -1
	// The tx-done timer rides in the channel's bulk insertion, appended
	// after the whole event fan — the same (at, seq) order as a separate
	// AfterCall. No handle is kept: the timer is never cancelled while in
	// csmaTx (CarrierChanged ignores that state).
	m.timer = sim.Event{}
	m.ch.TransmitThen(m.idx, p, csmaTxDoneCB, m, 0)
}

// freeze stops the running attempt at a carrier-busy edge. The slots
// whose boundaries have passed are spent, one on the edge included: a
// per-slot tick there was keyed a slot before it, the edge less than a
// slot (the propagation delay) before, so the tick ran first. The rest
// persist for the next attempt; an attempt interrupted in DIFS must use a
// random backoff next.
func (m *CSMA) freeze() {
	m.sim.Cancel(m.timer)
	m.timer = sim.Event{}
	switch now := m.sim.Now(); {
	case m.state == csmaLast:
		// The pre-expiry counted the DIFS end and every tick but the last.
		m.cd.leave(m)
		m.slots = 1
	case m.state == csmaBackoff && now >= m.from:
		spent := int((now - m.from) / m.cfg.SlotTime)
		m.slots -= spent
		m.sim.Elide(1 + spent) // the DIFS end and the spent slots' ticks
	case m.slots < 0:
		m.slots = m.rnd.Intn(m.cfg.CW)
	}
	m.state = csmaDefer
}

// CarrierChanged implements channel.Radio.
func (m *CSMA) CarrierChanged(busy bool) {
	switch m.state {
	case csmaDIFS, csmaBackoff, csmaLast:
		if busy {
			m.freeze()
		}
	case csmaDefer:
		if !busy {
			m.start()
		}
	case csmaIdle, csmaTx:
		// Nothing to do: no pending frame, or our own transmission
		// (completion is handled by the tx-end timer). The MAC does not
		// listen in these states, so only a channel built with
		// channel.Config.EagerCarrier reports these edges.
	}
}

// Ideal is a contention-free MAC: frames go on the air immediately, back to
// back, with no carrier sense. Collisions still occur at the channel unless
// the channel is configured without them.
type Ideal struct {
	sim *sim.Simulator
	ch  *channel.Channel
	idx int

	sending bool
	// queue[head:] is the FIFO; see CSMA.queue for the reuse scheme.
	queue []*packet.Packet
	head  int
}

// NewIdeal builds the contention-free MAC for node idx.
func NewIdeal(s *sim.Simulator, ch *channel.Channel, idx int) *Ideal {
	m := &Ideal{sim: s, ch: ch, idx: idx}
	ch.Attach(idx, m)
	ch.Listen(idx, false) // it never senses the carrier
	return m
}

// Reset implements MAC. Ideal draws no randomness; parent is unused.
func (m *Ideal) Reset(parent *rng.RNG) {
	for i := range m.queue {
		m.queue[i] = nil
	}
	m.queue = m.queue[:0]
	m.head = 0
	m.sending = false
}

// AdoptIdle implements MAC. Ideal keeps no counters or random stream, so
// there is nothing to take: it only checks that src is idle.
func (m *Ideal) AdoptIdle(src MAC) {
	if s := src.(*Ideal); s.sending || s.head != len(s.queue) {
		panic("mac: AdoptIdle from a busy Ideal MAC")
	}
}

// Send implements MAC.
func (m *Ideal) Send(p *packet.Packet) {
	m.queue = append(m.queue, p)
	if !m.sending {
		m.next()
	}
}

func (m *Ideal) next() {
	if m.head == len(m.queue) {
		m.queue = m.queue[:0]
		m.head = 0
		m.sending = false
		return
	}
	m.sending = true
	p := m.queue[m.head]
	m.queue[m.head] = nil
	m.head++
	m.ch.TransmitThen(m.idx, p, idealNextCB, m, 0)
}

// CarrierChanged implements channel.Radio. Ideal ignores the carrier, and
// since it never listens only a channel built with
// channel.Config.EagerCarrier calls it.
func (m *Ideal) CarrierChanged(bool) {}
