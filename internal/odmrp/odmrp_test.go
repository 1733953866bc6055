package odmrp

import (
	"testing"

	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

func lineNet(t *testing.T, n int) (*network.Network, []*Router) {
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

func TestName(t *testing.T) {
	if New(DefaultConfig()).Name() != "ODMRP" {
		t.Error("name")
	}
}

func TestDefaultJitterApplied(t *testing.T) {
	r := New(Config{}) // zero jitter must be defaulted
	if r.Config().Jitter != sim.Millisecond {
		t.Errorf("Jitter = %v", r.Config().Jitter)
	}
}

func TestTreeAndDelivery(t *testing.T) {
	net, routers := lineNet(t, 5)
	net.Nodes[4].JoinGroup(1)
	net.Start()
	net.Run()
	key := routers[0].FloodQuery(1)
	net.Run()
	for i := 1; i <= 3; i++ {
		if !routers[i].IsForwarder(key) {
			t.Errorf("node %d should forward", i)
		}
	}
	routers[0].SendData(key, 16)
	net.Run()
	if !routers[4].GotData(key) {
		t.Error("receiver missed data")
	}
}

func TestNoOverhearingState(t *testing.T) {
	// ODMRP must not mark covered/forwarder neighbors from overheard JRs.
	net, routers := lineNet(t, 4)
	net.Nodes[3].JoinGroup(1)
	net.Start()
	net.Run()
	key := routers[0].FloodQuery(1)
	net.Run()
	// Node 3 overheard node 2 relaying its JR; without Overhear, no mark.
	// Node 2 is one hop closer to the source, so a mark would make it an
	// uphill forwarder.
	if h, ok := routers[3].NeighborHop(key, 2); !ok || h != 2 {
		t.Fatalf("node 3 learned hop %d,%v for node 2, want 2", h, ok)
	}
	if routers[3].HasUphillForwarder(key) {
		t.Error("ODMRP must not track forwarder neighbors")
	}
}

func TestQueryDelayWithinJitter(t *testing.T) {
	net, routers := lineNet(t, 2)
	_ = net
	r := routers[0]
	q := packet.JoinQuery{SourceID: 1, GroupID: 1, SequenceNo: 1}
	for i := 0; i < 100; i++ {
		d := r.queryDelay(r.Base, q, 1)
		if d < 0 || d >= r.Config().Jitter {
			t.Fatalf("delay %v outside [0, jitter)", d)
		}
	}
}
