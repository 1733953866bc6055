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
	if a.Cell(MTMRP, 1, MetricOverhead) != b.Cell(MTMRP, 1, MetricOverhead) {
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
	am := func(workers int) *AmortizeResult {
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

	sh := func(workers int) *ShadowingResult {
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
	n := res.Cell(MTMRP, 0, MetricOverhead).N
	if n == 0 || n >= 40 {
		t.Errorf("partial result folded %d runs, want 0 < n < 40", n)
	}
	if res.Stats.Skipped == 0 {
		t.Error("no skipped runs recorded")
	}
}

// TestSweepCollectErrorsPolicy: with CollectErrors, a driver returns both
// the partial result and the labelled failure report. A group size larger
// than the topology forces PickReceivers to fail for one size only.
func TestSweepCollectErrorsPolicy(t *testing.T) {
	res, err := GroupSizeSweep(SweepConfig{
		Topo:      GridTopo,
		Sizes:     []int{5, 1000}, // 1000 receivers cannot exist on 100 nodes
		Runs:      3,
		Seed:      1,
		Protocols: []Protocol{MTMRP},
		Engine:    EngineOptions{ErrorPolicy: sweep.CollectErrors},
	})
	var es sweep.Errors
	if !errors.As(err, &es) {
		t.Fatalf("err = %v, want sweep.Errors", err)
	}
	if len(es) != 3 {
		t.Errorf("collected %d failures, want 3 (one per bad-size run)", len(es))
	}
	for _, e := range es {
		if e.Label == "" {
			t.Error("failure missing run label")
		}
	}
	if res == nil {
		t.Fatal("no partial result with CollectErrors")
	}
	if n := res.Cell(MTMRP, 0, MetricOverhead).N; n != 3 {
		t.Errorf("good size folded %d runs, want 3", n)
	}
	if res.Stats.Failed != 3 || res.Stats.Completed != 3 {
		t.Errorf("stats = %+v", res.Stats)
	}

	// The same workload under the default fail-fast policy returns no
	// result at all.
	res2, err2 := GroupSizeSweep(SweepConfig{
		Topo: GridTopo, Sizes: []int{5, 1000}, Runs: 3, Seed: 1,
		Protocols: []Protocol{MTMRP},
	})
	if res2 != nil || err2 == nil {
		t.Errorf("fail-fast: res=%v err=%v, want nil result + error", res2, err2)
	}
}
