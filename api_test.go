package mtmrp_test

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mtmrp"
	"mtmrp/internal/mobility"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
)

func TestGridFacade(t *testing.T) {
	topo := mtmrp.Grid()
	if topo.N() != 100 || topo.Side != 200 || topo.Range != 40 {
		t.Errorf("paper grid wrong: n=%d side=%v range=%v", topo.N(), topo.Side, topo.Range)
	}
}

func TestRandomTopologyFacade(t *testing.T) {
	topo, err := mtmrp.RandomTopology(50, 150, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if topo.N() != 50 || !topo.Connected() {
		t.Errorf("random topology: n=%d connected=%v", topo.N(), topo.Connected())
	}
}

func TestPaperRandomFacade(t *testing.T) {
	topo, err := mtmrp.PaperRandomTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	if topo.N() != 200 {
		t.Errorf("n = %d", topo.N())
	}
}

func TestCustomTopologyFacade(t *testing.T) {
	topo, err := mtmrp.CustomTopology([]mtmrp.Point{{X: 0, Y: 0}, {X: 30, Y: 0}}, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Neighbors(0)) != 1 {
		t.Error("adjacency missing")
	}
	if _, err := mtmrp.CustomTopology([]mtmrp.Point{{X: 0, Y: 0}}, 100, 40); err == nil {
		t.Error("single-node topology should fail")
	}
}

func TestEndToEndFacade(t *testing.T) {
	topo := mtmrp.Grid()
	rcv, err := mtmrp.PickReceivers(topo, 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := mtmrp.Run(mtmrp.Scenario{
		Topo: topo, Source: 0, Receivers: rcv,
		Protocol: mtmrp.MTMRP, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := out.Result
	if r.Transmissions <= 0 || r.Transmissions > 100 {
		t.Errorf("Transmissions = %d", r.Transmissions)
	}
	if r.EnergyTotalJ <= 0 || r.EnergyMaxNodeJ <= 0 {
		t.Error("energy accounting missing")
	}
	if r.EnergyMaxNodeJ > r.EnergyTotalJ {
		t.Error("hotspot exceeds network total")
	}
}

func TestCentralizedTreeFacade(t *testing.T) {
	topo := mtmrp.Grid()
	rcv, _ := mtmrp.PickReceivers(topo, 0, 5, 2)
	for _, fn := range []func(*mtmrp.Topology, int, []int) (*mtmrp.Tree, error){
		mtmrp.SPTTree, mtmrp.SteinerTree, mtmrp.MinTransmissionTree,
	} {
		tr, err := fn(topo, 0, rcv)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Transmissions() < 1 {
			t.Error("degenerate tree")
		}
	}
}

func TestSnapshotFacade(t *testing.T) {
	topo := mtmrp.Grid()
	snap := mtmrp.NewSnapshot(topo, 0, []int{5, 10}, []int{1})
	out := snap.Render()
	if !strings.Contains(out, "S") || !strings.Contains(out, "#") {
		t.Error("render incomplete")
	}
	tx, extra := snap.Counts()
	if tx != 2 || extra != 1 {
		t.Errorf("counts = %d/%d", tx, extra)
	}
}

func TestFaultFacade(t *testing.T) {
	topo := mtmrp.Grid()
	rcv, err := mtmrp.PickReceivers(topo, 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	schedule := mtmrp.PlanFaults(mtmrp.FaultPlan{
		Nodes: topo.N(), Protect: []int{0}, FailFraction: 0.3,
		Start: 1200 * mtmrp.Millisecond, Window: 400 * mtmrp.Millisecond,
	}, 9)
	if len(schedule) == 0 || schedule.Crashed() == 0 {
		t.Fatalf("PlanFaults drew an empty schedule: %v", schedule)
	}
	loss := mtmrp.DefaultLossModel()
	out, err := mtmrp.Run(mtmrp.Scenario{
		Topo: topo, Source: 0, Receivers: rcv,
		Protocol: mtmrp.ODMRP, Seed: 1,
		Traffic: mtmrp.TrafficOptions{
			DataPackets: 6, Interval: 50 * mtmrp.Millisecond,
			RefreshInterval: 200 * mtmrp.Millisecond,
		},
		Faults: mtmrp.FaultOptions{
			Schedule:        schedule,
			Loss:            &loss,
			ForwarderExpiry: 300 * mtmrp.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rb := out.Robustness
	if len(rb.PDR) != len(rcv) || rb.DataSent == 0 {
		t.Errorf("robustness incomplete: %+v", rb)
	}
	if rb.MinPDR > rb.MeanPDR || rb.MeanPDR > 1 {
		t.Errorf("PDR aggregates inconsistent: mean=%v min=%v", rb.MeanPDR, rb.MinPDR)
	}
}

func TestFaultSweepFacade(t *testing.T) {
	res, err := mtmrp.FaultSweep(mtmrp.FaultConfig{
		Topo:          mtmrp.GridTopo,
		GroupSize:     5,
		FailFractions: []float64{0, 0.3},
		Runs:          2,
		Seed:          1,
		Packets:       4,
		Protocols:     []mtmrp.Protocol{mtmrp.MTMRP},
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Cell(mtmrp.MTMRP.String(), 1, "mean_pdr")
	if cell.N != 2 || cell.Mean <= 0 || cell.Mean > 1 {
		t.Errorf("fault sweep cell = %+v", cell)
	}
}

func TestSweepFacade(t *testing.T) {
	res, err := mtmrp.GroupSizeSweep(mtmrp.SweepConfig{
		Topo:      mtmrp.GridTopo,
		Sizes:     []int{5},
		Runs:      2,
		Seed:      1,
		Protocols: []mtmrp.Protocol{mtmrp.MTMRP},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cell(mtmrp.MTMRP.String(), 0, "overhead").N != 2 {
		t.Error("sweep incomplete")
	}
}

// TestSavedTopologyAndMotionReplay runs the documented file workflow: a
// deployment and a motion plan saved the way cmd/topogen writes them,
// loaded back with LoadTopology and LoadMotion and replayed through
// MobilityOptions.Trace by a paced session, twice, with identical
// results.
func TestSavedTopologyAndMotionReplay(t *testing.T) {
	dir := t.TempDir()
	topo, err := mtmrp.RandomTopology(60, 150, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	plan := mobility.Draw(mobility.Config{
		Model: mobility.RandomWaypoint, Field: topo.Side, MaxSpeed: 10,
		Horizon: sim.Second, Pinned: []int{0},
	}, topo.Positions, rng.New(5).Derive("mobility"))
	save := func(name string, write func(io.Writer) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	topoPath, motionPath := save("field.json", topo.Save), save("motion.json", plan.Save)

	loaded, err := mtmrp.LoadTopology(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Positions, topo.Positions) {
		t.Fatal("loaded topology moved its nodes")
	}
	trace, err := mtmrp.LoadMotion(motionPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*trace, plan) {
		t.Fatal("loaded motion plan differs from the saved one")
	}
	receivers, err := mtmrp.PickReceivers(loaded, 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := mtmrp.Scenario{
		Topo: loaded, Source: 0, Receivers: receivers, Protocol: mtmrp.MTMRP, Seed: 1,
		Traffic: mtmrp.TrafficOptions{
			DataPackets: 10, Interval: 50 * mtmrp.Millisecond, RefreshInterval: 200 * mtmrp.Millisecond,
		},
		Mobility: mtmrp.MobilityOptions{Trace: trace},
	}
	a, err := mtmrp.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mtmrp.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Result, b.Result) || !reflect.DeepEqual(a.Robustness, b.Robustness) {
		t.Errorf("replayed runs differ:\n%+v\n%+v", a.Result, b.Result)
	}
	if a.Robustness.DataSent != 10 {
		t.Errorf("sent %d data packets, want 10", a.Robustness.DataSent)
	}
}

// TestRunFromSpecFacade: a RunSpec runs in-process the session mtmrd
// serves for it, bit-identically with and without a SessionPool, and
// again on the pool's reused session.
func TestRunFromSpecFacade(t *testing.T) {
	spec := mtmrp.RunSpec{Topo: mtmrp.RunTopoSpec{Kind: "grid"}, GroupSize: 10, Protocol: "odmrp", Seed: 3}
	fresh, err := mtmrp.RunFromSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := mtmrp.NewSessionPool()
	for i := 0; i < 2; i++ {
		got, err := mtmrp.RunFromSpec(spec, pool)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Result, fresh.Result) {
			t.Errorf("pooled run %d differs from a fresh one:\n%+v\n%+v", i, got.Result, fresh.Result)
		}
	}
}
