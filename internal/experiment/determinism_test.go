package experiment

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mtmrp/internal/experiment/sweep"
)

// TestGroupSizeSweepDeterministicAcrossWorkers is the engine's headline
// guarantee at the driver level: the published summary tables are
// bit-identical (==, not approximately) for any worker count, because
// per-job streams derive from (seed, label) and metrics fold in job
// order.
func TestGroupSizeSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := func(workers int) SweepConfig {
		return SweepConfig{
			Topo:      GridTopo,
			Sizes:     []int{5, 15},
			Runs:      6,
			Seed:      2010,
			Protocols: []Protocol{MTMRP, ODMRP},
			Engine:    EngineOptions{Workers: workers},
		}
	}
	a, err := GroupSizeSweep(cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GroupSizeSweep(cfg(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Cells, b.Cells) {
		t.Fatalf("summary tables diverged across worker counts:\nW=1: %+v\nW=8: %+v",
			a.Cells, b.Cells)
	}
	// Spot-check exact equality of one cell, in case DeepEqual is ever
	// weakened around the Summary type.
	if a.Cell("MTMRP", 1, "overhead") != b.Cell("MTMRP", 1, "overhead") {
		t.Error("cell not bit-identical")
	}
	if a.Stats.Completed != 12 || a.Stats.Workers != 1 || b.Stats.Workers != 8 {
		t.Errorf("engine stats wrong: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Stats.RunEvents.Mean <= 0 {
		t.Error("no event counts surfaced")
	}
}

// TestAmortizeShadowingDeterministicAcrossWorkers covers the two drivers
// that were serial before the engine: parallelizing them must not change
// their numbers.
func TestAmortizeShadowingDeterministicAcrossWorkers(t *testing.T) {
	am := func(workers int) *Table {
		res, err := AmortizeSweep(AmortizeConfig{
			Topo: GridTopo, GroupSize: 8, Packets: []int{1, 5}, Runs: 3,
			Seed: 4, Protocols: []Protocol{MTMRP, Flooding}, Engine: EngineOptions{Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := am(1), am(6)
	if !reflect.DeepEqual(a.Cells, b.Cells) {
		t.Error("AmortizeSweep diverged across worker counts")
	}

	sh := func(workers int) *Table {
		res, err := ShadowingSweep(ShadowingConfig{
			Topo: GridTopo, GroupSize: 8, SigmasDB: []float64{0, 1}, Runs: 3,
			Seed: 6, Protocols: []Protocol{MTMRP}, Engine: EngineOptions{Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	c, d := sh(1), sh(6)
	if !reflect.DeepEqual(c.Cells, d.Cells) {
		t.Error("ShadowingSweep diverged across worker counts")
	}
}

// TestSweepCancellationPartialResult: a sweep cancelled mid-flight still
// returns the completed rounds as a usable partial result.
func TestSweepCancellationPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := SweepConfig{
		Topo:      GridTopo,
		Sizes:     []int{5},
		Runs:      40,
		Seed:      1,
		Protocols: []Protocol{MTMRP},
		Engine: EngineOptions{
			Workers: 2,
			Ctx:     ctx,
			Progress: func(p sweep.Progress) {
				if p.Done == 5 {
					cancel()
				}
			},
		},
	}
	res, err := GroupSizeSweep(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled sweep returned no partial result")
	}
	n := res.Cell("MTMRP", 0, "overhead").N
	if n == 0 || n >= 40 {
		t.Errorf("partial result folded %d runs, want 0 < n < 40", n)
	}
	if res.Stats.Skipped == 0 {
		t.Error("no skipped runs recorded")
	}
}

// TestSweepFailingRunAborts: a failing run aborts the driver with the
// failure, labelled for reproduction, and no result. A group size larger
// than the topology forces PickReceivers to fail for one size only.
func TestSweepFailingRunAborts(t *testing.T) {
	res, err := GroupSizeSweep(SweepConfig{
		Topo: GridTopo, Sizes: []int{5, 1000}, Runs: 3, Seed: 1,
		Protocols: []Protocol{MTMRP},
	})
	var je *sweep.JobError
	if !errors.As(err, &je) || je.Label == "" {
		t.Fatalf("err = %v, want a labelled sweep.JobError", err)
	}
	if res != nil {
		t.Errorf("res = %v, want nil result", res)
	}
}
