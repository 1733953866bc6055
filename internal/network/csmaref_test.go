// csmaref_test.go keeps the per-slot backoff countdown mac.CSMA ran
// before it folded each contention attempt into one timer, as the
// differential oracle for that fold (TestCSMAMatchesPerSlotReference) —
// the same pattern as neighbor's marksref.go and sim's refheap_test.go, kept
// in a test file so it is no second production path. It takes one event
// for DIFS and one per 20 µs slot: each tick decrements the count and
// transmits at zero, and a carrier-busy edge cancels the pending tick and
// keeps the count.
package network

import (
	"mtmrp/internal/channel"
	"mtmrp/internal/mac"
	"mtmrp/internal/packet"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
)

// UseEagerCarrier makes every network built until restore is called run
// every carrier edge as an event (channel.Config.EagerCarrier), the
// reference for lazy carrier sense.
func UseEagerCarrier() (restore func()) {
	prev := eagerCarrier
	eagerCarrier = true
	return func() { eagerCarrier = prev }
}

// UseReferenceCSMA makes every network built until restore is called run
// the per-slot reference MAC wherever it would run mac.CSMA.
func UseReferenceCSMA() (restore func()) {
	prev := newCSMA
	newCSMA = func(s *sim.Simulator, ch *channel.Channel, _ *mac.Countdowns, i int, cfg mac.CSMAConfig) mac.MAC {
		m := &refCSMA{sim: s, ch: ch, idx: i, cfg: cfg, rnd: new(rng.RNG), slots: -1}
		ch.Attach(i, m)
		ch.Listen(i, false)
		return m
	}
	return func() { newCSMA = prev }
}

type refState uint8

const (
	refIdle    refState = iota // nothing to send
	refDefer                   // waiting for the medium to go idle
	refDIFS                    // medium idle, waiting out DIFS
	refBackoff                 // counting down backoff slots
	refTx                      // frame on the air
)

// refCSMA is the per-slot countdown. It listens to carrier edges
// (channel.Channel.Listen) in the states mac.CSMA listens in — deferring,
// in DIFS or counting down — so both fold the same carrier edges.
type refCSMA struct {
	sim *sim.Simulator
	ch  *channel.Channel
	idx int
	cfg mac.CSMAConfig
	rnd *rng.RNG

	state refState
	queue []*packet.Packet
	slots int       // remaining backoff slots
	timer sim.Event // pending DIFS/slot timer
}

func (m *refCSMA) Reset(parent *rng.RNG) {
	m.queue = m.queue[:0]
	m.state = refIdle
	m.slots = -1
	m.timer = sim.Event{}
	m.ch.Listen(m.idx, false)
	parent.DeriveInto("mac", m.rnd)
}

func (m *refCSMA) AdoptIdle(src mac.MAC) {
	s := src.(*refCSMA)
	if s.state != refIdle || len(s.queue) != 0 || s.ch.Busy(s.idx) || s.slots >= 0 {
		panic("refCSMA: AdoptIdle from a busy MAC")
	}
	*m.rnd = *s.rnd
}

func (m *refCSMA) Send(p *packet.Packet) {
	if m.cfg.MaxQueue > 0 && len(m.queue) >= m.cfg.MaxQueue {
		return
	}
	m.queue = append(m.queue, p)
	if m.state == refIdle {
		m.start()
	}
}

func (m *refCSMA) start() {
	if len(m.queue) == 0 {
		m.state = refIdle
		return
	}
	if m.state == refIdle {
		m.ch.Listen(m.idx, true)
	}
	if m.ch.Busy(m.idx) {
		if m.slots < 0 {
			m.slots = m.rnd.Intn(m.cfg.CW)
		}
		m.state = refDefer
		return
	}
	m.state = refDIFS
	m.timer = m.sim.AfterCall(m.cfg.DIFS, refDIFSCB, m, 0)
}

func refDIFSCB(arg any, _ int) {
	m := arg.(*refCSMA)
	m.timer = sim.Event{}
	if m.slots < 0 {
		m.transmit()
		return
	}
	m.state = refBackoff
	m.tick()
}

func refSlotCB(arg any, _ int) {
	m := arg.(*refCSMA)
	m.timer = sim.Event{}
	m.slots--
	m.tick()
}

func refTxDoneCB(arg any, _ int) {
	m := arg.(*refCSMA)
	m.state = refIdle
	m.start()
}

func (m *refCSMA) tick() {
	if m.slots == 0 {
		m.transmit()
		return
	}
	m.timer = m.sim.AfterCall(m.cfg.SlotTime, refSlotCB, m, 0)
}

func (m *refCSMA) transmit() {
	p := m.queue[0]
	m.queue = append(m.queue[:0], m.queue[1:]...)
	m.state = refTx
	m.ch.Listen(m.idx, false)
	m.slots = -1
	m.ch.TransmitThen(m.idx, p, refTxDoneCB, m, 0)
}

func (m *refCSMA) CarrierChanged(busy bool) {
	switch m.state {
	case refDIFS, refBackoff:
		if busy {
			m.sim.Cancel(m.timer)
			m.timer = sim.Event{}
			if m.slots < 0 {
				m.slots = m.rnd.Intn(m.cfg.CW)
			}
			m.state = refDefer
		}
	case refDefer:
		if !busy {
			m.start()
		}
	}
}
