package fault

import (
	"reflect"
	"testing"

	"mtmrp/internal/geom"
	"mtmrp/internal/network"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

func line(t *testing.T, n int) *topology.Topology {
	t.Helper()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 30}
	}
	topo, err := topology.FromPositions(pts, float64(n)*30, 40)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestPlanDeterministic(t *testing.T) {
	cfg := PlanConfig{
		Nodes:        50,
		Protect:      []int{0},
		FailFraction: 0.3,
		Start:        sim.Second,
		Window:       2 * sim.Second,
		Downtime:     sim.Second,
	}
	a := Plan(cfg, rng.New(7).Derive("faults"))
	b := Plan(cfg, rng.New(7).Derive("faults"))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-stream plans differ:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("0.3 fail fraction over 49 nodes drew no faults")
	}
	if a.Crashed() == 0 {
		t.Error("Crashed() = 0 on a crash plan")
	}
	for _, e := range a {
		if e.Node == 0 {
			t.Errorf("protected node 0 faulted: %+v", e)
		}
		if e.Kind == NodeCrash && (e.At < cfg.Start || e.At >= cfg.Start+cfg.Window) {
			t.Errorf("crash at %v outside [%v, %v)", e.At, cfg.Start, cfg.Start+cfg.Window)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("plan not sorted: %v after %v", a[i].At, a[i-1].At)
		}
	}
}

func TestPlanDowntimePairsEvents(t *testing.T) {
	cfg := PlanConfig{Nodes: 30, FailFraction: 1, Window: sim.Second, Downtime: sim.Second}
	s := Plan(cfg, rng.New(1))
	crashes, recovers := 0, 0
	for _, e := range s {
		switch e.Kind {
		case NodeCrash:
			crashes++
		case NodeRecover:
			recovers++
		}
	}
	if crashes != 30 || recovers != 30 {
		t.Errorf("crashes=%d recovers=%d, want 30 each", crashes, recovers)
	}
}

func TestPlanDegradeKinds(t *testing.T) {
	s := Plan(PlanConfig{Nodes: 10, FailFraction: 1, Degrade: true, Downtime: sim.Second}, rng.New(1))
	for _, e := range s {
		if e.Kind != LinkDegrade && e.Kind != LinkRestore {
			t.Fatalf("degrade plan produced %v", e.Kind)
		}
	}
}

func TestArmAppliesEventsInOrder(t *testing.T) {
	net := network.New(line(t, 3), network.DefaultConfig(1))
	s := Schedule{
		{At: sim.Second, Node: 1, Kind: NodeCrash},
		{At: 2 * sim.Second, Node: 1, Kind: NodeRecover},
		{At: 3 * sim.Second, Node: 2, Kind: LinkDegrade},
		{At: 4 * sim.Second, Node: 2, Kind: LinkRestore},
	}
	Arm(net, s)
	net.Sim.RunUntil(sim.Second + sim.Millisecond)
	if !net.Nodes[1].Down() {
		t.Error("node 1 should be down after its crash event")
	}
	net.Sim.RunUntil(2*sim.Second + sim.Millisecond)
	if net.Nodes[1].Down() {
		t.Error("node 1 should have recovered")
	}
	net.Sim.RunUntil(3*sim.Second + sim.Millisecond)
	if !net.Chan.Degraded(2) {
		t.Error("node 2's links should be degraded")
	}
	net.Sim.RunUntil(4*sim.Second + sim.Millisecond)
	if net.Chan.Degraded(2) {
		t.Error("node 2's links should be restored")
	}
}

func TestSortTieBreaks(t *testing.T) {
	s := Schedule{
		{At: sim.Second, Node: 2, Kind: NodeRecover},
		{At: sim.Second, Node: 1, Kind: NodeCrash},
		{At: sim.Second, Node: 2, Kind: NodeCrash},
	}
	s.Sort()
	want := Schedule{
		{At: sim.Second, Node: 1, Kind: NodeCrash},
		{At: sim.Second, Node: 2, Kind: NodeCrash},
		{At: sim.Second, Node: 2, Kind: NodeRecover},
	}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("sorted = %v, want %v", s, want)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		NodeCrash: "crash", NodeRecover: "recover",
		LinkDegrade: "degrade", LinkRestore: "restore",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
