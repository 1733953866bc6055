package energy

import (
	"math"
	"testing"

	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/radio"
	"mtmrp/internal/topology"
)

func rig(t *testing.T) (*topology.Topology, radio.Params, *Meter) {
	t.Helper()
	topo, err := topology.Grid(3, 1, 60, 40) // line: 0-1-2, 30 m spacing
	if err != nil {
		t.Fatal(err)
	}
	params := radio.MustDefault80211Params(40, 2.2)
	return topo, params, NewMeter(topo, params, DefaultModel())
}

func TestChargeAccounting(t *testing.T) {
	topo, params, m := rig(t)
	_ = topo
	m.Charge(1, 100) // middle node transmits 100 bytes
	airtime := params.TxDuration(100)
	model := DefaultModel()
	if got := m.TxEnergy(1); math.Abs(got-model.TxPower*airtime) > 1e-15 {
		t.Errorf("tx energy = %v", got)
	}
	// Both line neighbors pay reception.
	for _, nb := range []int{0, 2} {
		if got := m.RxEnergy(nb); math.Abs(got-model.RxPower*airtime) > 1e-15 {
			t.Errorf("rx energy of %d = %v", nb, got)
		}
	}
	if m.RxEnergy(1) != 0 {
		t.Error("transmitter charged for reception")
	}
	wantTotal := (model.TxPower + 2*model.RxPower) * airtime
	if got := m.TotalEnergy(); math.Abs(got-wantTotal) > 1e-12 {
		t.Errorf("total = %v, want %v", got, wantTotal)
	}
}

func TestMaxNodeEnergy(t *testing.T) {
	_, _, m := rig(t)
	m.Charge(0, 50)
	m.Charge(0, 50)
	node, joules := m.MaxNodeEnergy()
	if node != 0 || joules <= 0 {
		t.Errorf("hotspot = %d/%v", node, joules)
	}
}

func TestReset(t *testing.T) {
	_, _, m := rig(t)
	m.Charge(1, 10)
	m.Reset()
	if m.TotalEnergy() != 0 {
		t.Error("reset incomplete")
	}
}

func TestAttachObservesTraffic(t *testing.T) {
	topo, params, m := rig(t)
	cfg := network.DefaultConfig(1)
	cfg.Radio = params
	cfg.MAC = network.MACIdeal
	cfg.DisableCollisions = true
	net := network.New(topo, cfg)
	m.Attach(net)
	net.Nodes[0].Send(packet.NewHello(0, nil))
	net.Run()
	if m.TxEnergy(0) <= 0 {
		t.Error("transmission not metered")
	}
	if m.RxEnergy(1) <= 0 {
		t.Error("reception not metered")
	}
	if m.TxEnergy(2)+m.RxEnergy(2) != 0 {
		t.Error("out-of-range node charged")
	}
}

func TestMoreTransmissionsMoreEnergy(t *testing.T) {
	// The paper's core premise: transmission count drives network energy.
	_, _, ma := rig(t)
	_, _, mb := rig(t)
	ma.Charge(1, 64)
	mb.Charge(1, 64)
	mb.Charge(0, 64)
	if mb.TotalEnergy() <= ma.TotalEnergy() {
		t.Error("extra transmission did not increase total energy")
	}
}
