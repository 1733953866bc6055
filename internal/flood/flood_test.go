package flood

import (
	"testing"

	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/topology"
)

func rig(t *testing.T, n int) (*network.Network, []*Router) {
	t.Helper()
	topo, err := topology.Grid(n, 1, float64((n-1)*30), 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.DefaultConfig(1)
	cfg.MAC = network.MACIdeal
	cfg.DisableCollisions = true
	net := network.New(topo, cfg)
	routers := make([]*Router, n)
	for i := 0; i < n; i++ {
		routers[i] = New(DefaultConfig())
		net.SetProtocol(i, routers[i])
	}
	return net, routers
}

func TestEveryNodeRebroadcastsOnce(t *testing.T) {
	net, routers := rig(t, 5)
	var dataTx int
	net.OnTransmit = func(n *network.Node, p *packet.Packet) {
		if p.Type == packet.TData {
			dataTx++
		}
	}
	net.Start()
	net.Run()
	key := routers[0].FloodQuery(1)
	routers[0].SendData(key, 8)
	net.Run()
	if dataTx != 5 {
		t.Errorf("transmissions = %d, want 5 (every node exactly once)", dataTx)
	}
	for i, r := range routers {
		if !r.GotData(key) {
			t.Errorf("node %d missed the flood", i)
		}
	}
}

func TestDuplicateSuppression(t *testing.T) {
	net, routers := rig(t, 3)
	var dataTx int
	net.OnTransmit = func(n *network.Node, p *packet.Packet) {
		if p.Type == packet.TData {
			dataTx++
		}
	}
	net.Start()
	net.Run()
	key := routers[0].FloodQuery(1)
	routers[0].SendData(key, 8)
	net.Run()
	first := dataTx
	// Replaying an already-seen frame (same DataSeq) is suppressed.
	routers[1].Receive(packet.NewFactory().NewData(0, packet.Data{
		SourceID: key.Source, GroupID: key.Group, SequenceNo: key.Seq, DataSeq: 1,
	}))
	net.Run()
	if dataTx != first {
		t.Errorf("duplicate frame rebroadcast: %d -> %d", first, dataTx)
	}
	// A fresh packet of the same session floods again.
	routers[0].SendData(key, 8)
	net.Run()
	if dataTx != 2*first {
		t.Errorf("second packet flooded %d times total, want %d", dataTx, 2*first)
	}
}

// TestEveryNodeIsForwarder: flooding has no forwarding group; every node
// relays the data once.
func TestEveryNodeIsForwarder(t *testing.T) {
	net, routers := rig(t, 3)
	var sent [3]int
	net.OnTransmit = func(n *network.Node, p *packet.Packet) {
		if p.Type == packet.TData {
			sent[n.ID]++
		}
	}
	net.Start()
	net.Run()
	key := routers[0].FloodQuery(1)
	routers[0].SendData(key, 8)
	net.Run()
	if sent != [3]int{1, 1, 1} {
		t.Errorf("DATA transmissions per node = %v, want one each", sent)
	}
}

func TestIgnoresControlTraffic(t *testing.T) {
	net, routers := rig(t, 2)
	net.Start()
	net.Run()
	// Deliver a JQ to a flooding node: must be ignored without panic.
	routers[1].Receive(packet.NewFactory().NewJoinQuery(0, packet.JoinQuery{SourceID: 0, GroupID: 1, SequenceNo: 1}))
	routers[1].Receive(packet.NewHello(0, nil))
	net.Run()
}
