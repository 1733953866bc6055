// Package energy accounts per-node radio energy for a simulated run,
// using the classic WSN cost model the paper's motivation relies on: every
// transmission costs the sender transmit power x airtime, and costs every
// node within reception range receive power x airtime (the broadcast
// medium forces neighbors to receive whether or not the frame is for
// them). This is exactly why minimising the number of transmissions
// minimises energy: "the transmission cost is proportional to the sending
// cost" (§III).
//
// Power draws default to the ns-2 WaveLAN values (tx 0.660 W, rx 0.395 W),
// the same radio the paper's simulations model.
package energy

import (
	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/radio"
	"mtmrp/internal/topology"
)

// Model carries the radio power draws in Watts.
type Model struct {
	TxPower   float64 // radio draw while transmitting
	RxPower   float64 // radio draw while receiving
	IdlePower float64 // draw while idle (accounted per unit virtual time if used)
}

// DefaultModel returns the ns-2 WaveLAN card draws.
func DefaultModel() Model {
	return Model{TxPower: 0.660, RxPower: 0.395, IdlePower: 0.035}
}

// Meter accumulates per-node energy. Attach it to a network before
// running the simulation.
type Meter struct {
	model  Model
	params radio.Params
	topo   *topology.Topology
	tx     []float64 // Joules spent transmitting, per node
	rx     []float64 // Joules spent receiving, per node
}

// NewMeter builds a meter for the topology.
func NewMeter(topo *topology.Topology, params radio.Params, model Model) *Meter {
	return &Meter{
		model:  model,
		params: params,
		topo:   topo,
		tx:     make([]float64, topo.N()),
		rx:     make([]float64, topo.N()),
	}
}

// Attach chains the meter into the network's transmit hook. Reception
// energy is charged to every in-range neighbor of the transmitter —
// including overhearers and collision victims, which is what the shared
// medium costs physically.
func (m *Meter) Attach(net *network.Network) {
	prev := net.OnTransmit
	net.OnTransmit = func(n *network.Node, p *packet.Packet) {
		if prev != nil {
			prev(n, p)
		}
		m.Charge(int(n.ID), p.Size)
	}
}

// Charge records one transmission of size bytes by node from.
func (m *Meter) Charge(from int, size int) {
	airtime := m.params.TxDuration(size)
	m.tx[from] += m.model.TxPower * airtime
	for _, nb := range m.topo.Neighbors(from) {
		m.rx[nb] += m.model.RxPower * airtime
	}
}

// TxEnergy returns Joules node i spent transmitting.
func (m *Meter) TxEnergy(i int) float64 { return m.tx[i] }

// RxEnergy returns Joules node i spent receiving.
func (m *Meter) RxEnergy(i int) float64 { return m.rx[i] }

// TotalEnergy sums Joules over the whole network.
func (m *Meter) TotalEnergy() float64 {
	total := 0.0
	for i := range m.tx {
		total += m.tx[i] + m.rx[i]
	}
	return total
}

// MaxNodeEnergy returns the highest per-node consumption — the hotspot
// that determines network lifetime under the first-node-dies criterion.
func (m *Meter) MaxNodeEnergy() (node int, joules float64) {
	node = -1
	for i := range m.tx {
		if e := m.tx[i] + m.rx[i]; e > joules || node == -1 {
			node, joules = i, e
		}
	}
	return node, joules
}

// Reset zeroes the meters (for multi-phase accounting).
func (m *Meter) Reset() {
	for i := range m.tx {
		m.tx[i] = 0
		m.rx[i] = 0
	}
}

// AdoptIdle copies src's per-node transmit and receive energy into m, a
// meter of the same size.
func (m *Meter) AdoptIdle(src *Meter) {
	if len(src.tx) != len(m.tx) {
		panic("energy: AdoptIdle with different node count")
	}
	copy(m.tx, src.tx)
	copy(m.rx, src.rx)
}

// Rebind points the meter at a different same-size topology and zeroes the
// meters; session reuse swaps random topologies under a pooled network.
// The radio parameters (and hence airtimes) are unchanged.
func (m *Meter) Rebind(topo *topology.Topology) {
	if topo.N() != len(m.tx) {
		panic("energy: Rebind with different node count")
	}
	m.topo = topo
	m.Reset()
}
