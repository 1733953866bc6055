package metrics

import (
	"math"
	"slices"
	"testing"

	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

// switchProto forwards every DATA frame exactly once per DataSeq while
// enabled; toggling it mid-run creates (and later closes) delivery gaps.
type switchProto struct {
	node    *network.Node
	forward bool
	seen    map[uint32]bool
}

func (r *switchProto) Attach(n *network.Node) { r.node = n; r.seen = map[uint32]bool{} }
func (r *switchProto) Start()                 {}
func (r *switchProto) Receive(p *packet.Packet) {
	if p.Type != packet.TData || r.seen[p.Data.DataSeq] {
		return
	}
	r.seen[p.Data.DataSeq] = true
	if r.forward {
		r.node.Send(r.node.Packets().NewData(r.node.ID, *p.Data))
	}
}

// robustRig: the 4-node line with switchable forwarders on 1 and 2.
func robustRig(t *testing.T, receivers []int) (*network.Network, *Collector, []*switchProto) {
	t.Helper()
	topo, err := topology.Grid(4, 1, 90, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.DefaultConfig(1)
	cfg.MAC = network.MACIdeal
	cfg.DisableCollisions = true
	net := network.New(topo, cfg)
	protos := make([]*switchProto, 4)
	for i := 0; i < 4; i++ {
		protos[i] = &switchProto{forward: i == 1 || i == 2}
		net.SetProtocol(i, protos[i])
	}
	col := NewCollector(net, 0, 1, receivers)
	return net, col, protos
}

func sendSeq(net *network.Network, seq uint32) {
	net.Nodes[0].Send(net.Nodes[0].Packets().NewData(0, packet.Data{
		SourceID: 0, GroupID: 1, SequenceNo: 1, DataSeq: seq,
	}))
	net.Run()
}

func TestPerPacketDeliveryCounts(t *testing.T) {
	net, col, protos := robustRig(t, []int{2, 3})
	sendSeq(net, 1)
	protos[2].forward = false // packet 2 stops at node 2
	sendSeq(net, 2)
	if col.DataPacketCount() != 2 {
		t.Fatalf("DataPacketCount = %d, want 2", col.DataPacketCount())
	}
	counts := col.PacketCounts()
	if len(counts) != 2 || counts[0] != 2 || counts[1] != 1 {
		t.Errorf("PacketCounts = %v, want [2 1]", counts)
	}
}

func TestRobustnessRepairAccounting(t *testing.T) {
	net, col, protos := robustRig(t, []int{3})
	sendSeq(net, 1) // delivered
	protos[2].forward = false
	sendSeq(net, 2) // gap opens
	sendSeq(net, 3) // still open
	protos[2].forward = true
	sendSeq(net, 4) // gap closes: one repair

	rb := col.Robustness()
	if rb.DataSent != 4 {
		t.Fatalf("DataSent = %d, want 4", rb.DataSent)
	}
	if len(rb.PDR) != 1 || rb.PDR[0] != 0.5 {
		t.Errorf("PDR = %v, want [0.5]", rb.PDR)
	}
	if rb.MeanPDR != 0.5 || rb.MinPDR != 0.5 {
		t.Errorf("MeanPDR = %v MinPDR = %v, want 0.5", rb.MeanPDR, rb.MinPDR)
	}
	if rb.Repairs != 1 {
		t.Errorf("Repairs = %d, want 1", rb.Repairs)
	}
	if rb.MeanTimeToRepair <= 0 {
		t.Errorf("MeanTimeToRepair = %v, want > 0", rb.MeanTimeToRepair)
	}
}

func TestRobustnessOpenGapIsNotARepair(t *testing.T) {
	net, col, protos := robustRig(t, []int{3})
	sendSeq(net, 1)
	protos[2].forward = false
	sendSeq(net, 2) // gap never closes
	rb := col.Robustness()
	if rb.Repairs != 0 {
		t.Errorf("Repairs = %d for an open outage, want 0", rb.Repairs)
	}
	if rb.MeanTimeToRepair != 0 {
		t.Errorf("MeanTimeToRepair = %v, want 0", rb.MeanTimeToRepair)
	}
}

func TestRobustnessNoDataIsVacuousSuccess(t *testing.T) {
	_, col, _ := robustRig(t, []int{2, 3})
	rb := col.Robustness()
	if rb.MeanPDR != 1 || rb.MinPDR != 1 {
		t.Errorf("no-data MeanPDR = %v MinPDR = %v, want 1", rb.MeanPDR, rb.MinPDR)
	}
	for i, p := range rb.PDR {
		if p != 1 {
			t.Errorf("PDR[%d] = %v, want 1", i, p)
		}
	}
}

func TestRobustnessResetRewinds(t *testing.T) {
	net, col, _ := robustRig(t, []int{3})
	sendSeq(net, 1)
	col.Reset(0, 1, []int{3})
	if col.DataPacketCount() != 0 || len(col.PacketCounts()) != 0 {
		t.Error("Reset left per-packet state behind")
	}
	rb := col.Robustness()
	if rb.DataSent != 0 || rb.MeanPDR != 1 {
		t.Errorf("post-Reset Robustness = %+v", rb)
	}
	// A fresh send after Reset tracks from scratch (new DataSeq — the test
	// relays dedup per sequence number across the collector Reset).
	sendSeq(net, 2)
	if got := col.PacketCounts(); len(got) != 1 || got[0] != 1 {
		t.Errorf("post-Reset PacketCounts = %v, want [1]", got)
	}
	_ = sim.Time(0)
}

// TestRetransmissionRegistersOnce pins the dedup: the source re-sending an
// already-registered DataSeq must not create a second packet entry.
func TestRetransmissionRegistersOnce(t *testing.T) {
	net, col, _ := robustRig(t, []int{3})
	sendSeq(net, 1)
	sendSeq(net, 1)
	if col.DataPacketCount() != 1 {
		t.Errorf("DataPacketCount = %d after a retransmission, want 1", col.DataPacketCount())
	}
}

// TestRobustnessReceiverListEdgeCases pins the per-packet delivery
// statistics on three receiver lists the scenario validation admits: one
// that contains the source (the source decodes its relays' copies), one
// that names a receiver twice (both places report the same PDR, and its
// closed gap counts once per place), and one whose receiver is not the
// only node decoding DATA (the relays on nodes 1 and 2 decode every copy
// they forward). On the 4-node line, packet 2 stops at the switched-off
// relay and packet 3 closes the gap. The expected values are the ones the
// node-indexed tracking this collector replaced computed on the same
// runs.
func TestRobustnessReceiverListEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		receivers []int
		off       int // relay switched off for packet 2
		pdr       []float64
		counts    []int
		repairs   int
		mttr      sim.Time
	}{
		{"source listed", []int{0, 3}, 1, []float64{2.0 / 3, 2.0 / 3}, []int{1, 0, 1}, 2, 1176450},
		{"repeated id", []int{3, 2, 3}, 2, []float64{2.0 / 3, 1, 2.0 / 3}, []int{2, 1, 2}, 2, 1680600},
		{"relays decode", []int{3}, 2, []float64{2.0 / 3}, []int{1, 0, 1}, 1, 1680600},
	}
	for _, tc := range cases {
		net, col, protos := robustRig(t, tc.receivers)
		sendSeq(net, 1)
		protos[tc.off].forward = false
		sendSeq(net, 2)
		protos[tc.off].forward = true
		sendSeq(net, 3)
		rb := col.Robustness()
		if rb.DataSent != 3 || !slices.Equal(rb.PDR, tc.pdr) {
			t.Errorf("%s: DataSent %d PDR %v, want 3 %v", tc.name, rb.DataSent, rb.PDR, tc.pdr)
		}
		mean, min := 0.0, 1.0
		for _, p := range tc.pdr {
			mean += p / float64(len(tc.pdr))
			min = math.Min(min, p)
		}
		if math.Abs(rb.MeanPDR-mean) > 1e-12 || rb.MinPDR != min {
			t.Errorf("%s: MeanPDR %v MinPDR %v, want %v %v", tc.name, rb.MeanPDR, rb.MinPDR, mean, min)
		}
		if rb.Repairs != tc.repairs || rb.MeanTimeToRepair != tc.mttr {
			t.Errorf("%s: Repairs %d MeanTimeToRepair %v, want %d %v",
				tc.name, rb.Repairs, rb.MeanTimeToRepair, tc.repairs, tc.mttr)
		}
		if got := col.PacketCounts(); !slices.Equal(got, tc.counts) {
			t.Errorf("%s: PacketCounts %v, want %v", tc.name, got, tc.counts)
		}
	}
}
