package proto

import (
	"testing"

	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

// fixedDelay is the simplest QueryDelay policy: a constant per-node delay,
// keeping tests fully deterministic.
func fixedDelay(d sim.Time) func(*Base, packet.JoinQuery, packet.NodeID) sim.Time {
	return func(*Base, packet.JoinQuery, packet.NodeID) sim.Time { return d }
}

// deterministicConfig removes all randomised timing except HELLO jitter:
// with zero jitter every node beacons at t=0 and half-duplex radios hear
// nothing (each node is transmitting while its neighbors' beacons arrive).
// The jitter draws come from per-node seeded substreams, so runs remain
// bit-for-bit deterministic.
func deterministicConfig() Config {
	return Config{
		HelloInterval: 50 * sim.Millisecond,
		HelloRounds:   2,
		HelloJitter:   20 * sim.Millisecond,
		ReplyJitter:   0,
		RelayJitter:   0,
		DataJitter:    0,
	}
}

// newBase returns a Base set up by Init.
func newBase(name string, cfg Config, hooks Hooks) *Base {
	b := new(Base)
	b.Init(name, cfg, hooks)
	return b
}

// rig builds an n-node line network (spacing 30 m, range 40 m) with an
// ideal MAC and no collisions, running a Base with the given hooks on
// every node.
func rig(t *testing.T, n int, hooks Hooks, cfg Config) (*network.Network, []*Base) {
	t.Helper()
	topo, err := topology.Grid(n, 1, float64((n-1)*30), 40)
	if err != nil {
		t.Fatal(err)
	}
	ncfg := network.DefaultConfig(1)
	ncfg.MAC = network.MACIdeal
	ncfg.DisableCollisions = true
	net := network.New(topo, ncfg)
	bases := make([]*Base, n)
	for i := 0; i < n; i++ {
		bases[i] = newBase("test", cfg, hooks)
		net.SetProtocol(i, bases[i])
	}
	return net, bases
}

// session runs HELLO, floods a query from node 0, and returns the key.
func session(net *network.Network, bases []*Base) packet.FloodKey {
	net.Start()
	net.Run()
	key := bases[0].FloodQuery(1)
	net.Run()
	return key
}

func TestHelloPopulatesNeighborTables(t *testing.T) {
	net, bases := rig(t, 3, Hooks{QueryDelay: fixedDelay(0)}, deterministicConfig())
	net.Nodes[2].JoinGroup(1)
	net.Start()
	net.Run()
	// Middle node hears both ends; ends hear only the middle.
	if bases[1].NT.Len() != 2 {
		t.Errorf("middle table len = %d, want 2", bases[1].NT.Len())
	}
	if bases[0].NT.Len() != 1 {
		t.Errorf("end table len = %d, want 1", bases[0].NT.Len())
	}
	// Membership propagated.
	i := bases[1].NT.Index(2)
	if i < 0 || !bases[1].NT.InGroup(i, 1) {
		t.Error("membership not learned from HELLO")
	}
}

func TestLineTreeConstruction(t *testing.T) {
	// 0 - 1 - 2 - 3; receiver at 3. Nodes 1 and 2 must become forwarders.
	net, bases := rig(t, 4, Hooks{QueryDelay: fixedDelay(sim.Millisecond)}, deterministicConfig())
	net.Nodes[3].JoinGroup(1)
	key := session(net, bases)

	if !bases[3].Covered(key) {
		t.Error("receiver not covered")
	}
	if !bases[1].IsForwarder(key) || !bases[2].IsForwarder(key) {
		t.Error("interior nodes did not become forwarders")
	}
	if bases[3].IsForwarder(key) {
		t.Error("leaf receiver should not be a forwarder")
	}
	if bases[0].RepliesHeard(key) != 1 {
		t.Errorf("source heard %d replies, want 1", bases[0].RepliesHeard(key))
	}

	// Routes: each node's upstream is its line predecessor.
	for i := 1; i <= 3; i++ {
		rt := bases[i].RouteFor(key)
		if rt == nil || rt.Upstream != packet.NodeID(i-1) || rt.HopCount != int32(i) {
			t.Errorf("node %d route = %+v", i, rt)
		}
	}
}

func TestDataFollowsTree(t *testing.T) {
	net, bases := rig(t, 4, Hooks{QueryDelay: fixedDelay(sim.Millisecond)}, deterministicConfig())
	net.Nodes[3].JoinGroup(1)
	key := session(net, bases)

	var dataTx int
	net.OnTransmit = func(n *network.Node, p *packet.Packet) {
		if p.Type == packet.TData {
			dataTx++
		}
	}
	bases[0].SendData(key, 64)
	net.Run()
	if !bases[3].GotData(key) {
		t.Fatal("receiver missed the data")
	}
	if dataTx != 3 { // source + forwarders 1, 2
		t.Errorf("data transmissions = %d, want 3", dataTx)
	}
	// A second data packet of the same session flows down the same tree:
	// three more transmissions, no re-discovery.
	bases[0].SendData(key, 64)
	net.Run()
	if dataTx != 6 {
		t.Errorf("second packet: %d transmissions total, want 6", dataTx)
	}
	if bases[3].DataReceived(key) != 2 {
		t.Errorf("receiver got %d packets, want 2", bases[3].DataReceived(key))
	}
	// A duplicate frame (same DataSeq) is suppressed everywhere.
	bases[1].Receive(packet.NewFactory().NewData(0, packet.Data{
		SourceID: key.Source, GroupID: key.Group, SequenceNo: key.Seq, DataSeq: 2,
	}))
	net.Run()
	if dataTx != 6 {
		t.Errorf("duplicate suppression failed: %d transmissions", dataTx)
	}
}

func TestJoinQueryFloodOnce(t *testing.T) {
	net, bases := rig(t, 5, Hooks{QueryDelay: fixedDelay(sim.Millisecond)}, deterministicConfig())
	net.Nodes[4].JoinGroup(1)
	var jqTx int
	net.OnTransmit = func(n *network.Node, p *packet.Packet) {
		if p.Type == packet.TJoinQuery {
			jqTx++
		}
	}
	session(net, bases)
	if jqTx != 5 { // every node floods exactly once
		t.Errorf("JoinQuery transmissions = %d, want 5", jqTx)
	}
}

func TestCoveredReceiverAsNexthopJoinsSilently(t *testing.T) {
	// 0 - 1 - 2 - 3 with receivers at 2 AND 3. Node 2's own reply builds
	// the upstream path; when node 3's reply names node 2 as next hop,
	// node 2 marks itself forwarder WITHOUT relaying a second time.
	net, bases := rig(t, 4, Hooks{QueryDelay: fixedDelay(sim.Millisecond)}, deterministicConfig())
	net.Nodes[2].JoinGroup(1)
	net.Nodes[3].JoinGroup(1)
	var jrTx int
	net.OnTransmit = func(n *network.Node, p *packet.Packet) {
		if p.Type == packet.TJoinReply {
			jrTx++
		}
	}
	key := session(net, bases)
	if !bases[2].IsForwarder(key) {
		t.Error("covered receiver addressed as next hop must become forwarder")
	}
	// Replies: 2 originates (1 frame) relayed by 1 (1); 3 originates (1);
	// 2 absorbs it (0). Total 3.
	if jrTx != 3 {
		t.Errorf("JoinReply transmissions = %d, want 3", jrTx)
	}
	// Data must reach both.
	bases[0].SendData(key, 10)
	net.Run()
	if !bases[2].GotData(key) || !bases[3].GotData(key) {
		t.Error("data missed a receiver")
	}
}

func TestOverhearMarks(t *testing.T) {
	// 0 - 1 - 2 - 3, receiver at 3, Overhear on. When 2 relays 3's reply,
	// node 3 overhears a relayed JR and marks 2 as forwarder; when 3
	// originates, 2's neighbors (1, 3... 3 is the sender) — node 1 does
	// not hear 3. Node 2 hears 3 originate -> covered mark.
	net, bases := rig(t, 4, Hooks{
		QueryDelay: fixedDelay(sim.Millisecond),
		Overhear:   true,
	}, deterministicConfig())
	net.Nodes[3].JoinGroup(1)
	key := session(net, bases)

	// Node 2 overheard 3's origination? No: 2 was the next hop, so it
	// processed rather than overheard. Node 1 relays to 0; node 2
	// overhears that relayed JR (nexthop 0 != 2) and marks 1 forwarder.
	if _, fwd := marks(bases[2], key, 1); !fwd {
		t.Error("node 2 should have marked node 1 as forwarder via overhearing")
	}
	// Node 3 overhears 2's relay (nexthop 1 != 3): marks 2 forwarder.
	if _, fwd := marks(bases[3], key, 2); !fwd {
		t.Error("node 3 should have marked node 2 as forwarder")
	}
}

func TestOverhearCoveredMark(t *testing.T) {
	// Triangle-ish: 3 nodes in a line, receivers at 1 and 2. When 1
	// originates its JR (nexthop 0), node 2 overhears the origination and
	// marks 1 covered.
	net, bases := rig(t, 3, Hooks{
		QueryDelay: fixedDelay(sim.Millisecond),
		Overhear:   true,
	}, deterministicConfig())
	net.Nodes[1].JoinGroup(1)
	net.Nodes[2].JoinGroup(1)
	key := session(net, bases)
	if cov, _ := marks(bases[2], key, 1); !cov {
		t.Error("origination not overheard as covered")
	}
}

func TestSuppressReplyHook(t *testing.T) {
	// Receiver stays silent when the hook fires.
	suppressed := 0
	net, bases := rig(t, 3, Hooks{
		QueryDelay: fixedDelay(sim.Millisecond),
		SuppressReply: func(b *Base, key packet.FloodKey) bool {
			suppressed++
			return true
		},
	}, deterministicConfig())
	net.Nodes[2].JoinGroup(1)
	var jrTx int
	net.OnTransmit = func(n *network.Node, p *packet.Packet) {
		if p.Type == packet.TJoinReply {
			jrTx++
		}
	}
	key := session(net, bases)
	if suppressed != 1 {
		t.Errorf("hook invoked %d times, want 1", suppressed)
	}
	if jrTx != 0 {
		t.Errorf("JoinReply transmitted despite suppression: %d", jrTx)
	}
	if !bases[2].Covered(key) {
		t.Error("silent receiver must still mark itself covered")
	}
}

func TestGraftOnReplyHook(t *testing.T) {
	// Next hop grafts instead of relaying.
	net, bases := rig(t, 4, Hooks{
		QueryDelay:   fixedDelay(sim.Millisecond),
		GraftOnReply: func(b *Base, key packet.FloodKey) bool { return b.Node().ID == 2 },
	}, deterministicConfig())
	net.Nodes[3].JoinGroup(1)
	var jrTx int
	net.OnTransmit = func(n *network.Node, p *packet.Packet) {
		if p.Type == packet.TJoinReply {
			jrTx++
		}
	}
	key := session(net, bases)
	if !bases[2].IsForwarder(key) {
		t.Error("grafting node must set its forwarder flag")
	}
	if bases[1].IsForwarder(key) {
		t.Error("upstream of a grafted node must not see the reply")
	}
	if jrTx != 1 { // only the origination by node 3
		t.Errorf("JoinReply transmissions = %d, want 1", jrTx)
	}
}

func TestDuplicateJoinQueryIgnored(t *testing.T) {
	// Node 1 hears the query from 0 and later the echo from 2; the echo
	// must not change its route.
	net, bases := rig(t, 3, Hooks{QueryDelay: fixedDelay(sim.Millisecond)}, deterministicConfig())
	net.Nodes[2].JoinGroup(1)
	key := session(net, bases)
	rt := bases[1].RouteFor(key)
	if rt == nil || rt.Upstream != 0 {
		t.Errorf("route corrupted by duplicate: %+v", rt)
	}
}

func TestPathProfitPropagation(t *testing.T) {
	// OutPathProfit adds 10 per hop; verify the received PathProfit at
	// successive hops is 0, 10, 20.
	net, bases := rig(t, 4, Hooks{
		QueryDelay:    fixedDelay(sim.Millisecond),
		OutPathProfit: func(b *Base, q packet.JoinQuery) int32 { return q.PathProfit + 10 },
	}, deterministicConfig())
	net.Nodes[3].JoinGroup(1)
	key := session(net, bases)
	for i, want := range map[int]int32{1: 0, 2: 10, 3: 20} {
		rt := bases[i].RouteFor(key)
		if rt == nil || rt.PathProfit != want {
			t.Errorf("node %d PathProfit = %+v, want %d", i, rt, want)
		}
	}
}

func TestSeparateSessionsIsolated(t *testing.T) {
	net, bases := rig(t, 3, Hooks{QueryDelay: fixedDelay(sim.Millisecond)}, deterministicConfig())
	net.Nodes[2].JoinGroup(1)
	net.Start()
	net.Run()
	key1 := bases[0].FloodQuery(1)
	net.Run()
	key2 := bases[0].FloodQuery(1)
	net.Run()
	if key1 == key2 {
		t.Fatal("sessions share a key")
	}
	if !bases[1].IsForwarder(key1) || !bases[1].IsForwarder(key2) {
		t.Error("both sessions should have built the tree")
	}
	if bases[2].GotData(key1) {
		t.Error("no data sent yet")
	}
}

func TestDoubleAttachPanics(t *testing.T) {
	b := newBase("x", deterministicConfig(), Hooks{QueryDelay: fixedDelay(0)})
	topo, _ := topology.Grid(2, 1, 30, 40)
	net := network.New(topo, network.DefaultConfig(1))
	net.SetProtocol(0, b)
	defer func() {
		if recover() == nil {
			t.Error("double attach should panic")
		}
	}()
	b.Attach(net.Nodes[1])
}

func TestMissingQueryDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Init without QueryDelay should panic")
		}
	}()
	newBase("x", deterministicConfig(), Hooks{})
}

func TestSourceIgnoresOwnEcho(t *testing.T) {
	net, bases := rig(t, 2, Hooks{QueryDelay: fixedDelay(sim.Millisecond)}, deterministicConfig())
	net.Nodes[1].JoinGroup(1)
	key := session(net, bases)
	// The source's route entry must stay the self-registration.
	rt := bases[0].RouteFor(key)
	if rt == nil || rt.Upstream != packet.NoNode {
		t.Errorf("source route overwritten by echo: %+v", rt)
	}
	if bases[0].RepliesHeard(key) != 1 {
		t.Errorf("RepliesHeard = %d", bases[0].RepliesHeard(key))
	}
}
