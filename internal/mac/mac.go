// Package mac implements the medium-access layer between routing protocols
// and the shared channel.
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
	"mtmrp/internal/channel"
	"mtmrp/internal/packet"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
)

// MAC is the service a routing protocol sees.
type MAC interface {
	// Send queues a frame for (broadcast) transmission.
	Send(p *packet.Packet)
	// SetUpper installs the receive callback. Must be called before the
	// simulation starts.
	SetUpper(fn func(*packet.Packet))
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
	csmaDIFS                     // medium idle, waiting out DIFS
	csmaBackoff                  // counting down backoff slots
	csmaTx                       // frame on the air
)

// CSMA is the contention MAC. One instance per node.
type CSMA struct {
	sim   *sim.Simulator
	ch    *channel.Channel
	idx   int
	cfg   CSMAConfig
	rnd   *rng.RNG
	upper func(*packet.Packet)

	state csmaState
	// queue[head:] is the FIFO transmit queue. Popping advances head
	// instead of reslicing from the front, so the backing array is reused
	// forever once the queue drains back to empty (a [1:] reslice would
	// strand its prefix and force append to reallocate once per frame).
	queue   []*packet.Packet
	head    int
	slots   int       // remaining backoff slots
	timer   sim.Event // pending DIFS/slot/tx-end timer
	busy    bool      // local carrier state
	Dropped uint64    // frames dropped due to queue overflow
}

// NewCSMA builds the MAC for node idx and attaches it to the channel.
func NewCSMA(s *sim.Simulator, ch *channel.Channel, idx int, cfg CSMAConfig, rnd *rng.RNG) *CSMA {
	m := &CSMA{sim: s, ch: ch, idx: idx, cfg: cfg, rnd: rnd, slots: -1}
	ch.Attach(idx, m)
	return m
}

// SetUpper implements MAC.
func (m *CSMA) SetUpper(fn func(*packet.Packet)) { m.upper = fn }

// Reset implements MAC: idle state, empty queue, zero drop counter, and a
// fresh "mac" substream derived in place from parent (the node's reseeded
// generator), bit-identical to the stream a newly built MAC would get.
func (m *CSMA) Reset(parent *rng.RNG) {
	for i := range m.queue {
		m.queue[i] = nil
	}
	m.queue = m.queue[:0]
	m.head = 0
	m.state = csmaIdle
	m.slots = -1
	m.timer = sim.Event{}
	m.busy = false
	m.Dropped = 0
	parent.DeriveInto("mac", m.rnd)
}

// AdoptIdle implements MAC.
func (m *CSMA) AdoptIdle(src MAC) {
	s := src.(*CSMA)
	// An idle MAC with an idle carrier holds no backoff: slots are drawn
	// only for a queued frame and cleared when it goes on the air. So s
	// matches the reset m but for its drop counter and stream.
	if s.state != csmaIdle || s.QueueLen() != 0 || s.busy || s.slots >= 0 {
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
	if m.busy {
		// 802.11: a frame arriving to a busy medium must draw a random
		// backoff, otherwise every deferring neighbor would fire exactly
		// DIFS after the medium clears and collide.
		if m.slots < 0 {
			m.slots = m.rnd.Intn(m.cfg.CW)
		}
		m.state = csmaDefer // CarrierChanged(false) resumes
		return
	}
	// Medium idle: wait out DIFS, then transmit (or run down a frozen
	// backoff left over from an interrupted attempt).
	m.state = csmaDIFS
	m.timer = m.sim.AfterCall(m.cfg.DIFS, csmaDIFSCB, m, 0)
}

// Package-level timer callbacks: scheduling through AfterCall with the MAC
// itself as the argument keeps the per-frame and per-slot hot paths free of
// closure allocations (see internal/channel for the same pattern).
func csmaDIFSCB(arg any, _ int) { arg.(*CSMA).afterDIFS() }

func csmaSlotCB(arg any, _ int) {
	m := arg.(*CSMA)
	m.timer = sim.Event{}
	m.slots--
	m.tickSlot()
}

func csmaTxDoneCB(arg any, _ int) {
	m := arg.(*CSMA)
	m.timer = sim.Event{}
	m.state = csmaIdle
	m.start()
}

func idealNextCB(arg any, _ int) { arg.(*Ideal).next() }

func (m *CSMA) afterDIFS() {
	m.timer = sim.Event{}
	if m.slots < 0 {
		// Fresh frame, medium was idle through DIFS: 802.11 allows
		// immediate transmission. A random backoff is drawn only after
		// a deferral (set in CarrierChanged).
		m.transmit()
		return
	}
	m.state = csmaBackoff
	m.tickSlot()
}

func (m *CSMA) tickSlot() {
	if m.slots == 0 {
		m.transmit()
		return
	}
	m.timer = m.sim.AfterCall(m.cfg.SlotTime, csmaSlotCB, m, 0)
}

func (m *CSMA) transmit() {
	p := m.pop()
	m.state = csmaTx
	m.slots = -1
	// The tx-done timer rides in the channel's bulk insertion, appended
	// after the whole event fan — the same (at, seq) order as a separate
	// AfterCall. No handle is kept: the timer is never cancelled while in
	// csmaTx (CarrierChanged ignores that state).
	m.timer = sim.Event{}
	m.ch.TransmitThen(m.idx, p, csmaTxDoneCB, m, 0)
}

// CarrierChanged implements channel.Radio.
func (m *CSMA) CarrierChanged(busy bool) {
	m.busy = busy
	switch m.state {
	case csmaDIFS:
		if busy {
			// DIFS interrupted: next attempt must use a random backoff.
			m.sim.Cancel(m.timer)
			m.timer = sim.Event{}
			if m.slots < 0 {
				m.slots = m.rnd.Intn(m.cfg.CW)
			}
			m.state = csmaDefer
		}
	case csmaBackoff:
		if busy {
			// Freeze the countdown; remaining slots persist.
			m.sim.Cancel(m.timer)
			m.timer = sim.Event{}
			m.state = csmaDefer
		}
	case csmaDefer:
		if !busy {
			m.start()
		}
	case csmaIdle, csmaTx:
		// Nothing to do: no pending frame, or our own transmission
		// (completion is handled by the tx-end timer).
	}
}

// FrameReceived implements channel.Radio.
func (m *CSMA) FrameReceived(p *packet.Packet) {
	if m.upper != nil {
		m.upper(p)
	}
}

// Ideal is a contention-free MAC: frames go on the air immediately, back to
// back, with no carrier sense. Collisions still occur at the channel unless
// the channel is configured without them.
type Ideal struct {
	sim   *sim.Simulator
	ch    *channel.Channel
	idx   int
	upper func(*packet.Packet)

	sending bool
	// queue[head:] is the FIFO; see CSMA.queue for the reuse scheme.
	queue []*packet.Packet
	head  int
}

// NewIdeal builds the contention-free MAC for node idx.
func NewIdeal(s *sim.Simulator, ch *channel.Channel, idx int) *Ideal {
	m := &Ideal{sim: s, ch: ch, idx: idx}
	ch.Attach(idx, m)
	return m
}

// SetUpper implements MAC.
func (m *Ideal) SetUpper(fn func(*packet.Packet)) { m.upper = fn }

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

// FrameReceived implements channel.Radio.
func (m *Ideal) FrameReceived(p *packet.Packet) {
	if m.upper != nil {
		m.upper(p)
	}
}

// CarrierChanged implements channel.Radio. Ideal ignores the carrier.
func (m *Ideal) CarrierChanged(bool) {}
