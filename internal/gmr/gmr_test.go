package gmr

import (
	"testing"

	"mtmrp/internal/geom"
	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/topology"
)

// rig builds an n-node line network with ideal MAC / no collisions.
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

func countGeo(net *network.Network) *int {
	n := new(int)
	net.OnTransmit = func(_ *network.Node, p *packet.Packet) {
		if p.Type == packet.TGeoData {
			*n++
		}
	}
	return n
}

func TestLineDelivery(t *testing.T) {
	net, routers := rig(t, 5)
	tx := countGeo(net)
	routers[0].SetDestinations([]packet.NodeID{4})
	key := routers[0].FloodQuery(1)
	routers[0].SendData(key, 16)
	net.Run()
	if !routers[4].GotData(key) {
		t.Fatal("destination missed")
	}
	// Line: 4 hops = 4 transmissions, no discovery traffic at all.
	if *tx != 4 {
		t.Errorf("transmissions = %d, want 4", *tx)
	}
}

func TestAdjacentDestinationSingleHop(t *testing.T) {
	net, routers := rig(t, 3)
	tx := countGeo(net)
	routers[0].SetDestinations([]packet.NodeID{1})
	key := routers[0].FloodQuery(1)
	routers[0].SendData(key, 8)
	net.Run()
	if !routers[1].GotData(key) {
		t.Fatal("adjacent destination missed")
	}
	if *tx != 1 {
		t.Errorf("transmissions = %d, want 1", *tx)
	}
	if routers[2].GotData(key) {
		t.Error("non-destination claims delivery")
	}
}

func TestBranchSharing(t *testing.T) {
	// Y topology: source 0 at origin; two destinations behind a shared
	// relay. One frame must serve both until the split point.
	topo, err := topology.FromPositions([]geom.Point{
		{X: 0, Y: 30},  // 0 source
		{X: 30, Y: 30}, // 1 shared relay
		{X: 60, Y: 50}, // 2 dest A
		{X: 60, Y: 10}, // 3 dest B
	}, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.DefaultConfig(1)
	cfg.MAC = network.MACIdeal
	cfg.DisableCollisions = true
	net := network.New(topo, cfg)
	routers := make([]*Router, topo.N())
	for i := range routers {
		routers[i] = New(DefaultConfig())
		net.SetProtocol(i, routers[i])
	}
	tx := countGeo(net)
	routers[0].SetDestinations([]packet.NodeID{2, 3})
	key := routers[0].FloodQuery(1)
	routers[0].SendData(key, 8)
	net.Run()
	if !routers[2].GotData(key) || !routers[3].GotData(key) {
		t.Fatal("a destination missed")
	}
	// Source -> relay (1 frame carrying both), relay -> {A,B} (1 frame,
	// both are its neighbors): 2 transmissions total.
	if *tx != 2 {
		t.Errorf("transmissions = %d, want 2 (branch sharing)", *tx)
	}
}

func TestTTLBoundsForwarding(t *testing.T) {
	net, routers := rig(t, 6)
	tx := countGeo(net)
	for _, r := range routers {
		r.cfg.TTL = 2
	}
	routers[0].SetDestinations([]packet.NodeID{5})
	key := routers[0].FloodQuery(1)
	routers[0].SendData(key, 8)
	net.Run()
	if routers[5].GotData(key) {
		t.Error("TTL 2 cannot reach a 5-hop destination")
	}
	if *tx > 2 {
		t.Errorf("transmissions = %d, want <= 2", *tx)
	}
}

func TestMultiPacket(t *testing.T) {
	net, routers := rig(t, 4)
	routers[0].SetDestinations([]packet.NodeID{3})
	key := routers[0].FloodQuery(1)
	routers[0].SendData(key, 8)
	net.Run()
	routers[0].SendData(key, 8)
	net.Run()
	if got := routers[3].DataReceived(key); got != 2 {
		t.Errorf("destination received %d packets, want 2", got)
	}
}

func TestIgnoresTreeProtocols(t *testing.T) {
	_, routers := rig(t, 2)
	routers[1].Receive(packet.NewHello(0, nil))
	routers[1].Receive(packet.NewFactory().NewData(0, packet.Data{SourceID: 0, SequenceNo: 1}))
	// no panic, no state
	if routers[1].GotData(packet.FloodKey{Source: 0, Seq: 1}) {
		t.Error("tree data leaked into GMR state")
	}
}
