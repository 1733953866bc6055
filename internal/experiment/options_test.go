package experiment

import (
	"testing"

	"mtmrp/internal/channel"
	"mtmrp/internal/fault"
	"mtmrp/internal/network"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

// optionRunSpec is a non-default mobile run spec spelled through every
// grouped option (a golden-key fixture).
func optionRunSpec() RunSpec {
	return RunSpec{
		Topo:      TopoSpec{Kind: "grid"},
		GroupSize: 10,
		Protocol:  "odmrp",
		Seed:      11,
		Radio:     RadioSpec{MAC: "ideal", DisableCollisions: true, ShadowingSigmaDB: 4},
		Traffic:   TrafficSpec{PayloadLen: 128, DataPackets: 3, DiscoveryRounds: 1, IntervalMs: 50},
		Mobility:  MobilitySpec{Model: "waypoint", MaxSpeed: 10},
	}
}

// TestNormalizeAppliesDefaults pins normalize: set group fields survive,
// zero ones take the documented defaults.
func TestNormalizeAppliesDefaults(t *testing.T) {
	sc := Scenario{
		Radio:   RadioOptions{MAC: network.MACIdeal, ShadowingSigmaDB: 6},
		Traffic: TrafficOptions{DataPackets: 5},
	}
	sc.normalize()
	if sc.Radio.MAC != network.MACIdeal || sc.Radio.ShadowingSigmaDB != 6 {
		t.Errorf("radio group changed: %+v", sc.Radio)
	}
	if sc.Traffic.DataPackets != 5 {
		t.Errorf("packets = %d, want 5", sc.Traffic.DataPackets)
	}
	if sc.Traffic.PayloadLen != 64 || sc.Traffic.DiscoveryRounds != 2 {
		t.Errorf("traffic defaults: payload=%d rounds=%d", sc.Traffic.PayloadLen, sc.Traffic.DiscoveryRounds)
	}
	if sc.N != 4 || sc.Delta != sim.Millisecond {
		t.Errorf("backoff defaults: N=%d Delta=%v", sc.N, sc.Delta)
	}
}

// TestPacedDataWithRefresh exercises the paced data phase: packets spaced
// in virtual time, periodic JoinQuery refreshes inside the traffic, and a
// per-packet delivery report.
func TestPacedDataWithRefresh(t *testing.T) {
	topo := topology.PaperGrid()
	recv, err := topo.PickReceivers(0, 10, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(Scenario{
		Topo: topo, Source: 0, Receivers: recv, Protocol: ODMRP, Seed: 9,
		Radio: RadioOptions{MAC: network.MACIdeal, DisableCollisions: true},
		Traffic: TrafficOptions{
			DataPackets:     5,
			Interval:        50 * sim.Millisecond,
			RefreshInterval: 120 * sim.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunHello()
	key0 := s.RunDiscovery(0)
	rep, err := s.RunData(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 5 || len(rep.Delivered) != 5 {
		t.Fatalf("report = %+v, want 5 packets", rep)
	}
	for i, got := range rep.Delivered {
		if got != len(recv) {
			t.Errorf("packet %d reached %d/%d receivers", i, got, len(recv))
		}
	}
	if s.Key() == key0 {
		t.Error("refresh interval elapsed but the session key never advanced")
	}
	if rb := s.Robustness(); rb.MeanPDR != 1 || rb.Repairs != 0 {
		t.Errorf("pristine paced run Robustness = %+v", rb)
	}
}

// TestFaultOptionsApplyAndReset drives a session with a crash schedule and
// bursty loss through a Reset cycle, checking the options are applied on
// construction, shed by a fault-free Reset, and re-applied by a faulty one.
func TestFaultOptionsApplyAndReset(t *testing.T) {
	topo := topology.PaperGrid()
	recv, err := topo.PickReceivers(0, 10, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	loss := channel.DefaultLossConfig()
	faulty := Scenario{
		Topo: topo, Source: 0, Receivers: recv, Protocol: ODMRP, Seed: 5,
		Faults: FaultOptions{
			Schedule: fault.Schedule{{At: sim.Millisecond, Node: 1, Kind: fault.NodeCrash}},
			Loss:     &loss,
		},
	}
	s, err := NewSession(faulty)
	if err != nil {
		t.Fatal(err)
	}
	s.RunHello()
	if !s.Network().Nodes[1].Down() {
		t.Error("armed crash event did not fire during the HELLO phase")
	}

	clean := faulty
	clean.Faults = FaultOptions{}
	if err := s.Reset(clean); err != nil {
		t.Fatal(err)
	}
	s.RunHello()
	if s.Network().Nodes[1].Down() {
		t.Error("fault-free Reset left node 1 crashed")
	}
	if st := s.Network().Chan.Stats(); st.LossDrops != 0 {
		t.Errorf("fault-free Reset kept the loss model: %d drops", st.LossDrops)
	}

	if err := s.Reset(faulty); err != nil {
		t.Fatal(err)
	}
	s.RunHello()
	if !s.Network().Nodes[1].Down() {
		t.Error("faulty Reset did not re-arm the crash schedule")
	}
	if st := s.Network().Chan.Stats(); st.LossDrops == 0 {
		t.Errorf("faulty Reset did not re-apply the loss model")
	}
}
