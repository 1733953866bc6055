package network

import (
	"testing"

	"mtmrp/internal/channel"
	"mtmrp/internal/packet"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

// echoProto records received packets and optionally sends one at start.
type echoProto struct {
	node     *Node
	started  bool
	received []*packet.Packet
	sendOnce bool
}

func (e *echoProto) Attach(n *Node) { e.node = n }
func (e *echoProto) Start() {
	e.started = true
	if e.sendOnce {
		e.node.Send(packet.NewHello(e.node.ID, e.node.Groups()))
	}
}
func (e *echoProto) Receive(p *packet.Packet) { e.received = append(e.received, p) }

func smallTopo(t *testing.T) *topology.Topology {
	t.Helper()
	// 3 nodes in a line, 30 m apart, 40 m range: 0-1, 1-2 connected; 0-2 not.
	topo, err := topology.Grid(3, 1, 60, 40)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestBuildAndDelivery(t *testing.T) {
	topo := smallTopo(t)
	net := New(topo, DefaultConfig(1))
	protos := make([]*echoProto, 3)
	for i := range protos {
		protos[i] = &echoProto{sendOnce: i == 0}
		net.SetProtocol(i, protos[i])
	}
	net.Start()
	net.Run()
	for i, p := range protos {
		if !p.started {
			t.Errorf("protocol %d not started", i)
		}
	}
	if len(protos[1].received) != 1 {
		t.Errorf("node 1 received %d, want 1", len(protos[1].received))
	}
	if len(protos[2].received) != 0 {
		t.Errorf("node 2 (out of range) received %d, want 0", len(protos[2].received))
	}
}

func TestGroupMembership(t *testing.T) {
	topo := smallTopo(t)
	net := New(topo, DefaultConfig(1))
	n := net.Nodes[1]
	if n.InGroup(5) {
		t.Error("fresh node in group")
	}
	n.JoinGroup(5)
	n.JoinGroup(3)
	if !n.InGroup(5) || !n.InGroup(3) {
		t.Error("JoinGroup failed")
	}
	gs := n.Groups()
	if len(gs) != 2 || gs[0] != 3 || gs[1] != 5 {
		t.Errorf("Groups() = %v, want sorted [3 5]", gs)
	}
	n.LeaveGroup(5)
	if n.InGroup(5) {
		t.Error("LeaveGroup failed")
	}
}

func TestTransmitDeliverHooks(t *testing.T) {
	topo := smallTopo(t)
	net := New(topo, DefaultConfig(1))
	var tx, rx int
	net.OnTransmit = func(n *Node, p *packet.Packet) { tx++ }
	net.OnDeliver = func(n *Node, p *packet.Packet) { rx++ }
	for i := 0; i < 3; i++ {
		net.SetProtocol(i, &echoProto{sendOnce: i == 1}) // middle node: 2 neighbors
	}
	net.Start()
	net.Run()
	if tx != 1 || rx != 2 {
		t.Errorf("tx=%d rx=%d, want 1/2", tx, rx)
	}
}

func TestFailedNodeSilent(t *testing.T) {
	topo := smallTopo(t)
	net := New(topo, DefaultConfig(1))
	protos := make([]*echoProto, 3)
	for i := range protos {
		protos[i] = &echoProto{sendOnce: i == 0}
		net.SetProtocol(i, protos[i])
	}
	net.Nodes[1].Fail()
	net.Start()
	net.Run()
	if protos[1].started {
		t.Error("failed node protocol started")
	}
	if len(protos[1].received) != 0 {
		t.Error("failed node received traffic")
	}
	// Failed node cannot send either.
	net.Nodes[1].Send(packet.NewHello(1, nil))
	net.Run()
	if len(protos[0].received) != 0 {
		t.Error("frame escaped a failed node")
	}
	// Recovery restores reception.
	net.Nodes[1].Recover()
	if net.Nodes[1].Down() {
		t.Error("Recover did not clear down flag")
	}
	net.Nodes[0].Send(packet.NewHello(0, nil))
	net.Run()
	if len(protos[1].received) != 1 {
		t.Errorf("recovered node received %d, want 1", len(protos[1].received))
	}
}

func TestFailedNodeSkipsTimers(t *testing.T) {
	topo := smallTopo(t)
	net := New(topo, DefaultConfig(1))
	fired := false
	net.Nodes[0].After(10*sim.Millisecond, func() { fired = true })
	net.Nodes[0].Fail()
	net.Run()
	if fired {
		t.Error("timer fired on failed node")
	}
}

func TestSendStampsFrom(t *testing.T) {
	topo := smallTopo(t)
	net := New(topo, DefaultConfig(1))
	p2 := &echoProto{}
	net.SetProtocol(0, p2)
	pkt := packet.NewHello(99, nil) // wrong From on purpose
	net.Nodes[1].Send(pkt)
	net.Run()
	if len(p2.received) != 1 || p2.received[0].From != 1 {
		t.Errorf("From not stamped: %+v", p2.received)
	}
}

func TestIdealMACNetwork(t *testing.T) {
	topo := smallTopo(t)
	cfg := DefaultConfig(1)
	cfg.MAC = MACIdeal
	cfg.DisableCollisions = true
	net := New(topo, cfg)
	protos := make([]*echoProto, 3)
	for i := range protos {
		protos[i] = &echoProto{sendOnce: i != 1} // both ends transmit at t=0
		net.SetProtocol(i, protos[i])
	}
	net.Start()
	net.Run()
	// The ends transmit simultaneously; with collisions disabled the idle
	// middle node decodes both overlapping frames. (Half-duplex still
	// applies: had the middle been transmitting too, it would hear none.)
	if len(protos[1].received) != 2 {
		t.Errorf("middle received %d, want 2", len(protos[1].received))
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() uint64 {
		topo := smallTopo(t)
		net := New(topo, DefaultConfig(7))
		for i := 0; i < 3; i++ {
			net.SetProtocol(i, &echoProto{sendOnce: true})
		}
		net.Start()
		net.Run()
		return net.Chan.Stats().Transmissions*1000 + net.Chan.Stats().Deliveries
	}
	if runOnce() != runOnce() {
		t.Error("same-seed runs diverged")
	}
}

// TestFrameDigest: the digest is off (0) until SetDigest, folds exactly
// the events the observation hooks report — a downed receiver's frame
// included in neither — and restarts on Reset.
func TestFrameDigest(t *testing.T) {
	topo := smallTopo(t)
	run := func(digest bool) (*Network, uint64) {
		net := New(topo, DefaultConfig(1))
		for i := 0; i < 3; i++ {
			net.SetProtocol(i, &echoProto{sendOnce: i == 1})
		}
		net.SetDigest(digest)
		want := fnvOffset
		net.OnTransmit = func(n *Node, p *packet.Packet) { want = foldEvent(want, net, frameTx, n, p) }
		net.OnDeliver = func(n *Node, p *packet.Packet) { want = foldEvent(want, net, frameRx, n, p) }
		net.Nodes[2].Fail()
		net.Start()
		net.Run()
		return net, want
	}
	if net, _ := run(false); net.Digest() != 0 {
		t.Errorf("digest off: Digest() = %x, want 0", net.Digest())
	}
	net, want := run(true)
	if got := net.Digest(); got != want || got == fnvOffset {
		t.Errorf("Digest() = %x, want %x folded over the hooks' events", got, want)
	}
	net.Reset(topo, channel.NewLinkTable(topo.Positions, DefaultConfig(1).Radio), 1)
	if net.Digest() != 0 {
		t.Errorf("after Reset: Digest() = %x, want 0 (off)", net.Digest())
	}
}

// foldEvent folds one frame event at node n into the digest h, byte by
// byte, as Network.fold is documented to.
func foldEvent(h uint64, net *Network, kind byte, n *Node, p *packet.Packet) uint64 {
	for _, v := range []uint64{uint64(net.Sim.Now()), uint64(kind), uint64(n.ID),
		uint64(p.From), uint64(p.Type), p.UID, uint64(p.Size)} {
		for k := 0; k < 8; k++ {
			h = (h ^ uint64(byte(v>>(8*k)))) * fnvPrime
		}
	}
	return h
}

// TestCrashedNodeReceivesNothing pins the receive path (Network.deliver):
// a frame the channel decodes at a crashed node reaches neither the
// OnDeliver observers, nor the digest, nor the node's protocol, and a
// live node without a protocol takes its frames without one. The middle
// node sends once; node 0 has no protocol, node 2 has one and is down.
// Recovering node 2 restores all three.
func TestCrashedNodeReceivesNothing(t *testing.T) {
	topo := smallTopo(t)
	net := New(topo, DefaultConfig(1))
	sender, crashed := &echoProto{sendOnce: true}, &echoProto{}
	net.SetProtocol(1, sender)
	net.SetProtocol(2, crashed)
	if net.Nodes[0].Proto() != nil || net.Nodes[2].Proto() != Protocol(crashed) {
		t.Fatal("Proto does not report the installed protocols")
	}
	net.SetDigest(true)
	want := fnvOffset
	var observed []packet.NodeID
	net.OnTransmit = func(n *Node, p *packet.Packet) { want = foldEvent(want, net, frameTx, n, p) }
	net.OnDeliver = func(n *Node, p *packet.Packet) {
		observed = append(observed, n.ID)
		want = foldEvent(want, net, frameRx, n, p)
	}
	net.Nodes[2].Fail()
	net.Start()
	net.Run()
	if got := net.Chan.Stats().Deliveries; got != 2 {
		t.Fatalf("channel decoded %d frames, want 2 (nodes 0 and 2)", got)
	}
	if len(observed) != 1 || observed[0] != 0 {
		t.Errorf("observers saw receptions at %v, want only node 0", observed)
	}
	if len(crashed.received) != 0 {
		t.Errorf("crashed node's protocol received %d frames", len(crashed.received))
	}
	if got := net.Digest(); got != want {
		t.Errorf("digest %x, want %x: the crashed node's reception must not fold", got, want)
	}

	net.Nodes[2].Recover()
	net.Nodes[1].Send(packet.NewHello(1, nil))
	net.Run()
	if len(observed) != 3 || observed[2] != 2 || len(crashed.received) != 1 {
		t.Errorf("after recovery: observers saw %v, protocol received %d; want node 2 served", observed, len(crashed.received))
	}
	if got := net.Digest(); got != want {
		t.Errorf("after recovery: digest %x, want %x", got, want)
	}
}
