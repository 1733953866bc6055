package dodmrp

import (
	"testing"

	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
	c := DefaultConfig()
	c.N = 0
	if c.Validate() == nil {
		t.Error("N=0 should fail")
	}
	c = DefaultConfig()
	c.Delta = -1
	if c.Validate() == nil {
		t.Error("negative delta should fail")
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	New(Config{N: 0, Delta: 1})
}

func TestName(t *testing.T) {
	if New(DefaultConfig()).Name() != "DODMRP" {
		t.Error("name")
	}
}

// delayRig builds a router with a controllable neighbor table.
func delayRig(t *testing.T, selfMember bool, members int) *Router {
	t.Helper()
	topo, err := topology.Grid(2, 1, 30, 40)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(topo, network.DefaultConfig(1))
	r := New(DefaultConfig())
	net.SetProtocol(0, r)
	if selfMember {
		net.Nodes[0].JoinGroup(1)
	}
	for m := 0; m < members; m++ {
		r.NT.Observe(packet.NodeID(100+m), []packet.GroupID{1})
	}
	return r
}

func TestDestinationDrivenDelay(t *testing.T) {
	q := packet.JoinQuery{SourceID: 1, GroupID: 1, SequenceNo: 1}
	d := sim.Millisecond

	// No member neighbors, extra node: 2Nδ + [δ,2δ) = [9δ, 10δ).
	r := delayRig(t, false, 0)
	if got := r.queryDelay(&r.Base, q, 1); got < 9*d || got >= 10*d {
		t.Errorf("M=0 extra: %v not in [9δ,10δ)", got)
	}
	// Two member neighbors: [5δ, 6δ).
	r = delayRig(t, false, 2)
	if got := r.queryDelay(&r.Base, q, 1); got < 5*d || got >= 6*d {
		t.Errorf("M=2: %v not in [5δ,6δ)", got)
	}
	// Member count clamps at N.
	r = delayRig(t, false, 9)
	if got := r.queryDelay(&r.Base, q, 1); got < d || got >= 2*d {
		t.Errorf("M=9 clamped: %v not in [δ,2δ)", got)
	}
	// Self member: random term in [0, δ).
	r = delayRig(t, true, 0)
	if got := r.queryDelay(&r.Base, q, 1); got < 8*d || got >= 9*d {
		t.Errorf("member M=0: %v not in [8δ,9δ)", got)
	}
}

func TestCoverageIgnored(t *testing.T) {
	// DODMRP counts members regardless of coverage: an overheard
	// origination leaves its delay unchanged.
	q := packet.JoinQuery{SourceID: 1, GroupID: 1, SequenceNo: 1}
	r := delayRig(t, false, 2)
	key := q.Key()
	// Neighbor 100 is overheard originating its JoinReply.
	r.Receive(&packet.Packet{Type: packet.TJoinReply, From: 100, JoinReply: &packet.JoinReply{
		NodeID: 100, NexthopID: 1, ReceiverID: 100, SourceID: key.Source, GroupID: key.Group, SequenceNo: key.Seq,
	}})
	d := sim.Millisecond
	if got := r.queryDelay(&r.Base, q, 1); got < 5*d || got >= 6*d {
		t.Errorf("coverage must not matter: %v", got)
	}
}

func TestEndToEnd(t *testing.T) {
	topo, err := topology.Grid(4, 1, 90, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.DefaultConfig(1)
	cfg.MAC = network.MACIdeal
	cfg.DisableCollisions = true
	net := network.New(topo, cfg)
	routers := make([]*Router, 4)
	for i := range routers {
		routers[i] = New(DefaultConfig())
		net.SetProtocol(i, routers[i])
	}
	net.Nodes[3].JoinGroup(1)
	net.Start()
	net.Run()
	key := routers[0].FloodQuery(1)
	net.Run()
	routers[0].SendData(key, 8)
	net.Run()
	if !routers[3].GotData(key) {
		t.Error("delivery failed")
	}
}
