package core

import (
	"testing"

	"mtmrp/internal/geom"
	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/proto"
	"mtmrp/internal/radio"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := good
	bad.N = 0
	if bad.Validate() == nil {
		t.Error("N=0 should be invalid")
	}
	bad = good
	bad.Delta = 0
	if bad.Validate() == nil {
		t.Error("Delta=0 should be invalid")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config should panic")
		}
	}()
	New(Config{N: -1, Delta: sim.Millisecond})
}

func TestNames(t *testing.T) {
	if New(DefaultConfig()).Name() != "MTMRP" {
		t.Error("name")
	}
	c := DefaultConfig()
	c.PHS = false
	if New(c).Name() != "MTMRP-noPHS" {
		t.Error("no-PHS name")
	}
}

// TestBackoffBound: the biased backoff stays below (3N+2)δ — t_relay ≤
// 2Nδ, t_path ≤ Nδ, random < 2δ — and an extra node with no RelayProfit
// on a query with no PathProfit waits at least (3N+1)δ, for several
// (N, δ).
func TestBackoffBound(t *testing.T) {
	topo, _, _ := fig3Topology(t)
	for _, c := range []struct {
		n     int
		delta sim.Time
	}{{4, sim.Millisecond}, {1, 2 * sim.Millisecond}, {8, 500 * sim.Microsecond}} {
		cfg := DefaultConfig()
		cfg.N, cfg.Delta = c.n, c.delta
		net := network.New(topo, network.DefaultConfig(1))
		r := New(cfg)
		net.SetProtocol(1, r)
		q := packet.JoinQuery{SourceID: 0, GroupID: 1, SequenceNo: 1}
		lo, hi := sim.Time(3*c.n+1)*c.delta, sim.Time(3*c.n+2)*c.delta
		for i := 0; i < 100; i++ {
			if got := r.queryDelay(r.Base, q, 0); got < lo || got >= hi {
				t.Fatalf("N=%d δ=%v: delay %v not in [%v, %v)", c.n, c.delta, got, lo, hi)
			}
		}
	}
}

// fig3Topology builds the geometric layout of the paper's Fig. 3:
//
//	   A  D  G
//	S  B  E  H  J        (spacing 30 m, range 40 m: 4-neighborhood,
//	   C  F  I            no diagonal links, exactly as the paper states)
//
// Receivers are the group-member labels of Fig. 3's worked example; with
// them, the biased backoff must recruit exactly {B, E, H} as forwarders,
// i.e. 4 transmissions — the minimum-transmission tree of Fig. 1(c).
func fig3Topology(t *testing.T) (*topology.Topology, map[string]int, []int) {
	t.Helper()
	names := []string{"S", "A", "B", "C", "D", "E", "F", "G", "H", "I", "J"}
	pos := map[string]geom.Point{
		"S": {X: 0, Y: 30},
		"A": {X: 30, Y: 60}, "B": {X: 30, Y: 30}, "C": {X: 30, Y: 0},
		"D": {X: 60, Y: 60}, "E": {X: 60, Y: 30}, "F": {X: 60, Y: 0},
		"G": {X: 90, Y: 60}, "H": {X: 90, Y: 30}, "I": {X: 90, Y: 0},
		"J": {X: 120, Y: 30},
	}
	idx := make(map[string]int, len(names))
	pts := make([]geom.Point, len(names))
	for i, n := range names {
		idx[n] = i
		pts[i] = pos[n]
	}
	topo := topoFromPoints(t, pts, 150, 40)
	receivers := []int{idx["A"], idx["C"], idx["D"], idx["F"], idx["G"], idx["I"], idx["J"]}
	return topo, idx, receivers
}

// topoFromPoints builds a Topology via the random generator's machinery by
// reconstructing adjacency from explicit positions. topology.Topology has
// no public constructor for arbitrary point sets, so lay the points on a
// degenerate "grid" then overwrite — instead we synthesise with Random and
// fixed points is not possible; use the exported fields directly.
func topoFromPoints(t *testing.T, pts []geom.Point, side, rng float64) *topology.Topology {
	t.Helper()
	topo, err := topology.FromPositions(pts, side, rng)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// runFig3 runs MTMRP on the Fig. 3 network and returns the set of DATA
// transmitters.
func runFig3(t *testing.T, cfg Config, seed uint64, ideal bool) (map[int]bool, int, bool) {
	t.Helper()
	topo, idx, receivers := fig3Topology(t)
	ncfg := network.DefaultConfig(seed)
	ncfg.Radio = radio.MustDefault80211Params(topo.Range, 2.2)
	if ideal {
		ncfg.MAC = network.MACIdeal
		ncfg.DisableCollisions = true
	}
	net := network.New(topo, ncfg)
	routers := make([]*Router, topo.N())
	for i := range routers {
		routers[i] = New(cfg)
		net.SetProtocol(i, routers[i])
	}
	for _, r := range receivers {
		net.Nodes[r].JoinGroup(1)
	}
	transmitters := map[int]bool{}
	dataTx := 0
	net.OnTransmit = func(n *network.Node, p *packet.Packet) {
		if p.Type == packet.TData {
			transmitters[int(n.ID)] = true
			dataTx++
		}
	}
	net.Start()
	net.Run()
	key := routers[idx["S"]].FloodQuery(1)
	net.Run()
	routers[idx["S"]].SendData(key, 32)
	net.Run()
	allGot := true
	for _, r := range receivers {
		if !routers[r].GotData(key) {
			allGot = false
		}
	}
	return transmitters, dataTx, allGot
}

func TestFig3BiasedBackoffBuildsMinimumTree(t *testing.T) {
	// N=3 as in the paper's worked example. The backoff windows are
	// disjoint by construction (see the package comment's equations), so
	// the outcome is independent of the random draws: forwarders must be
	// exactly {B, E, H} — 4 transmissions, Fig. 1(c)'s optimum.
	cfg := DefaultConfig()
	cfg.N = 3
	for seed := uint64(0); seed < 5; seed++ {
		transmitters, dataTx, allGot := runFig3(t, cfg, seed, true)
		if !allGot {
			t.Fatalf("seed %d: some receiver missed the data", seed)
		}
		if dataTx != 4 {
			t.Fatalf("seed %d: %d transmissions, want 4 (S,B,E,H); set=%v",
				seed, dataTx, transmitters)
		}
	}
}

func TestFig3UnderCSMA(t *testing.T) {
	// Same scenario under the contention MAC with collisions: the biased
	// backoff margins (milliseconds) dwarf MAC noise (microseconds), so
	// the minimum tree should still emerge on typical seeds.
	cfg := DefaultConfig()
	cfg.N = 3
	optimal := 0
	for seed := uint64(0); seed < 10; seed++ {
		_, dataTx, allGot := runFig3(t, cfg, seed, false)
		if allGot && dataTx == 4 {
			optimal++
		}
	}
	if optimal < 8 {
		t.Errorf("minimum tree found in only %d/10 CSMA runs", optimal)
	}
}

func TestFig3NoPHSStillDelivers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 3
	cfg.PHS = false
	_, dataTx, allGot := runFig3(t, cfg, 1, true)
	if !allGot {
		t.Fatal("no-PHS run missed a receiver")
	}
	if dataTx < 4 {
		t.Fatalf("impossible transmission count %d", dataTx)
	}
}

// TestQueryDelayMonotonicity checks the reconstruction's contract: larger
// RelayProfit and larger PathProfit both strictly reduce the deterministic
// part of the backoff, and group members precede extra nodes.
func TestQueryDelayMonotonicity(t *testing.T) {
	topo, _, _ := fig3Topology(t)
	ncfg := network.DefaultConfig(1)
	net := network.New(topo, ncfg)
	cfg := DefaultConfig() // N=4, δ=1ms
	r := New(cfg)
	net.SetProtocol(0, r)

	// Seed the neighbor table with controllable member counts.
	mkDelay := func(members int, pp int32, selfMember bool) sim.Time {
		rr := New(cfg)
		n := net.Nodes[1+members] // any unused node
		if n.Proto() == nil {
			net.SetProtocol(1+members, rr)
		} else {
			rr = n.Proto().(*Router)
		}
		if selfMember {
			n.JoinGroup(1)
		} else {
			n.LeaveGroup(1)
		}
		for m := 0; m < members; m++ {
			rr.NT.Observe(packet.NodeID(100+m), []packet.GroupID{1})
		}
		q := packet.JoinQuery{SourceID: 0, GroupID: 1, SequenceNo: 1, PathProfit: pp}
		return rr.queryDelay(rr.Base, q, 0)
	}

	d := cfg.Delta
	// RP=0, PP=0, extra node: [2Nδ + Nδ + δ, ... + 2δ) = [13δ, 14δ).
	if got := mkDelay(0, 0, false); got < 13*d || got >= 14*d {
		t.Errorf("RP=0 PP=0 extra: %v not in [13δ,14δ)", got)
	}
	// RP=2: t_relay shrinks by 4δ: [9δ, 10δ).
	if got := mkDelay(2, 0, false); got < 9*d || got >= 10*d {
		t.Errorf("RP=2: %v not in [9δ,10δ)", got)
	}
	// RP >= N clamps t_relay at 0: [5δ, 6δ).
	if got := mkDelay(6, 0, false); got < 5*d || got >= 6*d {
		t.Errorf("RP=6 (clamped): %v not in [5δ,6δ)", got)
	}
	// PP=3 divides t_path by 4: 2Nδ + Nδ/4 + [δ,2δ) = [10δ, 11δ).
	if got := mkDelay(0, 3, false); got < 10*d || got >= 11*d {
		t.Errorf("PP=3: %v not in [10δ,11δ)", got)
	}
	// Group member: random term drops to [0,δ): [12δ, 13δ).
	if got := mkDelay(0, 0, true); got < 12*d || got >= 13*d {
		t.Errorf("member: %v not in [12δ,13δ)", got)
	}
}

func TestOutPathProfitAccumulates(t *testing.T) {
	topo, _, _ := fig3Topology(t)
	net := network.New(topo, network.DefaultConfig(1))
	r := New(DefaultConfig())
	net.SetProtocol(0, r)
	// Two uncovered member neighbors -> RP=2.
	r.NT.Observe(50, []packet.GroupID{1})
	r.NT.Observe(51, []packet.GroupID{1})
	q := packet.JoinQuery{SourceID: 9, GroupID: 1, SequenceNo: 1, PathProfit: 5}
	if got := r.outPathProfit(r.Base, q); got != 7 {
		t.Errorf("outPathProfit = %d, want 7", got)
	}
}

func TestRelayProfitReflectsCoverage(t *testing.T) {
	topo, _, _ := fig3Topology(t)
	net := network.New(topo, network.DefaultConfig(1))
	r := New(DefaultConfig())
	net.SetProtocol(0, r)
	key := packet.FloodKey{Source: 9, Group: 1, Seq: 1}
	r.NT.Observe(50, []packet.GroupID{1})
	r.NT.Observe(51, []packet.GroupID{1})
	if got := r.RelayProfit(key); got != 2 {
		t.Fatalf("RelayProfit = %d", got)
	}
	// Node 50 is overheard originating its JoinReply toward some other
	// next hop: it is a covered receiver now.
	r.Receive(&packet.Packet{Type: packet.TJoinReply, From: 50, JoinReply: &packet.JoinReply{
		NodeID: 50, NexthopID: 9, ReceiverID: 50, SourceID: key.Source, GroupID: key.Group, SequenceNo: key.Seq,
	}})
	if got := r.RelayProfit(key); got != 1 {
		t.Fatalf("after coverage: RelayProfit = %d", got)
	}
}

func TestPHSHooksInstalledOnlyWithPHS(t *testing.T) {
	// Behavioural check: on a two-branch topology, PHS prunes the second
	// reply path; verified indirectly by Fig. 3 runs. Here just check the
	// wiring difference exists via Name and the suppress behaviour on a
	// crafted table.
	rPHS := New(DefaultConfig())
	cfg := DefaultConfig()
	cfg.PHS = false
	rNo := New(cfg)
	if rPHS.Name() == rNo.Name() {
		t.Error("PHS toggle must be visible in the protocol name")
	}
}

var _ proto.Router = (*Router)(nil)
