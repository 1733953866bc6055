package metrics

import (
	"slices"
	"testing"

	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/topology"
)

// relayProto forwards DATA once if marked forwarder.
type relayProto struct {
	node    *network.Node
	forward bool
	seen    bool
}

func (r *relayProto) Attach(n *network.Node) { r.node = n }
func (r *relayProto) Start()                 {}
func (r *relayProto) Receive(p *packet.Packet) {
	if p.Type != packet.TData || r.seen {
		return
	}
	r.seen = true
	if r.forward {
		r.node.Send(r.node.Packets().NewData(r.node.ID, *p.Data))
	}
}

// rig: 4-node line (0-1-2-3, 30 m apart, 40 m range), node 1 and 2 forward.
func rig(t *testing.T, receivers []int) (*network.Network, *Collector) {
	t.Helper()
	topo, err := topology.Grid(4, 1, 90, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.DefaultConfig(1)
	cfg.MAC = network.MACIdeal
	cfg.DisableCollisions = true
	net := network.New(topo, cfg)
	for i := 0; i < 4; i++ {
		net.SetProtocol(i, &relayProto{forward: i == 1 || i == 2})
	}
	col := NewCollector(net, 0, 1, receivers)
	return net, col
}

func sendData(net *network.Network) {
	net.Nodes[0].Send(net.Nodes[0].Packets().NewData(0, packet.Data{SourceID: 0, GroupID: 1, SequenceNo: 1}))
	net.Run()
}

func TestTransmissionCount(t *testing.T) {
	net, col := rig(t, []int{3})
	sendData(net)
	res := col.Snapshot()
	if res.Transmissions != 3 { // 0, 1, 2 transmit
		t.Errorf("Transmissions = %d, want 3", res.Transmissions)
	}
	if res.TxByType[packet.TData] != 3 {
		t.Errorf("TxByType = %v", res.TxByType)
	}
	if res.ControlTx != 0 {
		t.Errorf("ControlTx = %d", res.ControlTx)
	}
}

func TestExtraNodes(t *testing.T) {
	// Receiver at 3; forwarders 1 and 2 are both extra.
	net, col := rig(t, []int{3})
	sendData(net)
	if got := col.Snapshot().ExtraNodes; got != 2 {
		t.Errorf("ExtraNodes = %d, want 2", got)
	}
	// Receiver at 2: forwarder 2 is a receiver, so only 1 is extra.
	net, col = rig(t, []int{2, 3})
	sendData(net)
	if got := col.Snapshot().ExtraNodes; got != 1 {
		t.Errorf("ExtraNodes = %d, want 1", got)
	}
}

func TestDeliveryAndRelayProfit(t *testing.T) {
	net, col := rig(t, []int{2, 3})
	sendData(net)
	res := col.Snapshot()
	if res.ReceiversReached != 2 || res.DeliveryRatio != 1 {
		t.Errorf("delivery = %d (%v)", res.ReceiversReached, res.DeliveryRatio)
	}
	// Neighbor-profit: relay 1 has member neighbor 2 (delivered) -> 1;
	// relay 2 has member neighbor 3 (delivered) -> 1. Average 1.
	if res.AvgRelayProfit != 1 {
		t.Errorf("AvgRelayProfit = %v, want 1", res.AvgRelayProfit)
	}
	// First-copy attribution: receiver 2 first heard node 1; receiver 3
	// first heard node 2. Each relay delivered exactly one first copy.
	if res.AvgFirstCopyProfit != 1 {
		t.Errorf("AvgFirstCopyProfit = %v, want 1", res.AvgFirstCopyProfit)
	}
}

func TestMissedReceiver(t *testing.T) {
	// Make node 2 a non-forwarder: receiver 3 is stranded.
	topo, _ := topology.Grid(4, 1, 90, 40)
	cfg := network.DefaultConfig(1)
	cfg.MAC = network.MACIdeal
	cfg.DisableCollisions = true
	net := network.New(topo, cfg)
	for i := 0; i < 4; i++ {
		net.SetProtocol(i, &relayProto{forward: i == 1})
	}
	col := NewCollector(net, 0, 1, []int{3})
	sendData(net)
	res := col.Snapshot()
	if res.ReceiversReached != 0 || res.DeliveryRatio != 0 {
		t.Errorf("delivery = %d (%v), want 0", res.ReceiversReached, res.DeliveryRatio)
	}
	if res.Transmissions != 2 {
		t.Errorf("Transmissions = %d, want 2", res.Transmissions)
	}
}

func TestControlVsDataSplit(t *testing.T) {
	net, col := rig(t, []int{3})
	net.Nodes[0].Send(packet.NewHello(0, nil))
	net.Run()
	sendData(net)
	res := col.Snapshot()
	if res.ControlTx != 1 {
		t.Errorf("ControlTx = %d, want 1", res.ControlTx)
	}
	if res.Transmissions != 3 {
		t.Errorf("Transmissions = %d, want 3 (control excluded)", res.Transmissions)
	}
	if res.BytesTx == 0 || res.BytesRx == 0 {
		t.Error("byte counters silent")
	}
}

func TestForwardersListed(t *testing.T) {
	net, col := rig(t, []int{3})
	sendData(net)
	res := col.Snapshot()
	if len(res.Forwarders) != 2 {
		t.Fatalf("Forwarders = %v", res.Forwarders)
	}
	seen := map[packet.NodeID]bool{}
	for _, f := range res.Forwarders {
		seen[f] = true
	}
	if !seen[1] || !seen[2] {
		t.Errorf("Forwarders = %v, want {1,2}", res.Forwarders)
	}
}

func TestChainsExistingHooks(t *testing.T) {
	topo, _ := topology.Grid(2, 1, 30, 40)
	cfg := network.DefaultConfig(1)
	cfg.MAC = network.MACIdeal
	net := network.New(topo, cfg)
	var prevTx int
	net.OnTransmit = func(n *network.Node, p *packet.Packet) { prevTx++ }
	net.SetProtocol(0, &relayProto{})
	net.SetProtocol(1, &relayProto{})
	_ = NewCollector(net, 0, 1, []int{1})
	net.Nodes[0].Send(net.Nodes[0].Packets().NewData(0, packet.Data{SourceID: 0, GroupID: 1, SequenceNo: 1}))
	net.Run()
	if prevTx != 1 {
		t.Error("previous OnTransmit hook lost")
	}
}

func TestEmptyGroupDeliveryRatio(t *testing.T) {
	net, col := rig(t, nil)
	sendData(net)
	if got := col.Snapshot().DeliveryRatio; got != 1 {
		t.Errorf("empty group delivery = %v, want 1", got)
	}
}

func TestTransmitterPositions(t *testing.T) {
	net, col := rig(t, []int{3})
	sendData(net)
	// The DATA transmitters: the source and the two relays of the chain.
	res := col.Snapshot()
	if res.Transmissions != 3 || len(res.Forwarders) != 2 || slices.Contains(res.Forwarders, 0) {
		t.Errorf("Transmissions = %d, Forwarders = %v", res.Transmissions, res.Forwarders)
	}
}
