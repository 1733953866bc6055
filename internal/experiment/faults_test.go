package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mtmrp/internal/fault"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

// miniFaultConfig is the small sweep used by both the bit-identity and the
// golden tests: two fractions (one of them zero, to keep a fault-free
// column in the table), two runs, three protocols.
func miniFaultConfig(workers int) FaultConfig {
	return FaultConfig{
		Topo:          GridTopo,
		GroupSize:     10,
		FailFractions: []float64{0, 0.2},
		Runs:          2,
		Seed:          77,
		Protocols:     []Protocol{MTMRP, ODMRP, DODMRP},
		Packets:       8,
		Engine:        EngineOptions{Workers: workers},
	}
}

// TestFaultSweepBitIdentical is the reproducibility acceptance test for
// the fault layer: the same sweep must fold to bit-identical summaries on
// one worker and on four (different job interleavings, per-worker session
// pools), and a single faulty scenario must produce the same outcome
// through a fresh session and a pooled, reset one.
func TestFaultSweepBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r1, err := FaultSweep(miniFaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := FaultSweep(miniFaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Cells, r4.Cells) {
		t.Errorf("fault sweep diverged across worker counts:\n 1: %+v\n 4: %+v",
			r1.Cells, r4.Cells)
	}

	// Fresh vs pooled, on a scenario with crashes, loss and soft state all
	// active. The pool runs it twice so the second pass goes through Reset.
	topo := topology.PaperGrid()
	rcv, err := topo.PickReceivers(0, 10, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	schedule := fault.Plan(fault.PlanConfig{
		Nodes: topo.N(), Protect: []int{0}, FailFraction: 0.2,
		Start: 1200 * sim.Millisecond, Window: 400 * sim.Millisecond,
	}, rng.New(5).Derive("faults"))
	if schedule.Crashed() == 0 {
		t.Fatal("planned schedule crashes nothing; pick a different seed")
	}
	sc := Scenario{
		Topo: topo, Source: 0, Receivers: rcv, Protocol: ODMRP, Seed: 5,
		Traffic: TrafficOptions{
			DataPackets: 8, Interval: 50 * sim.Millisecond,
			RefreshInterval: 200 * sim.Millisecond,
		},
		Faults: FaultOptions{Schedule: schedule, ForwarderExpiry: 300 * sim.Millisecond},
	}
	fresh, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSessionPool()
	for pass := 0; pass < 2; pass++ {
		pooled, err := pool.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh.Result, pooled.Result) {
			t.Errorf("pass %d: pooled faulty Result diverged from fresh:\n want %+v\n  got %+v",
				pass, fresh.Result, pooled.Result)
		}
		if !reflect.DeepEqual(fresh.Robustness, pooled.Robustness) {
			t.Errorf("pass %d: pooled faulty Robustness diverged from fresh:\n want %+v\n  got %+v",
				pass, fresh.Robustness, pooled.Robustness)
		}
	}
}

// TestGoldenFaultSweep pins the folded summaries of a miniature FaultSweep
// — the PDR-vs-failure-rate table cmd/repro prints — so the fault layer's
// draw order (plan, per-round streams, paced traffic, refresh floods)
// stays bit-identical under future work.
func TestGoldenFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := miniFaultConfig(0)
	res, err := FaultSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		Protocol string  `json:"protocol"`
		Fraction float64 `json:"fraction"`
		Metric   string  `json:"metric"`
		Mean     float64 `json:"mean"`
		CI95     float64 `json:"ci95"`
	}
	var got []cell
	for r, row := range res.Rows {
		for fi, frac := range cfg.FailFractions {
			for m := FaultMetric(0); m < NumFaultMetrics; m++ {
				s := res.Cells[r][fi][m]
				got = append(got, cell{row, frac, m.String(), s.Mean, s.CI95})
			}
		}
	}

	path := filepath.Join("testdata", "golden_faults.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: wrote %d cells to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (run with -update on a known-good tree first)", err)
	}
	var want []cell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		for i := range want {
			if i < len(got) && !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("golden cell mismatch: want %+v, got %+v", want[i], got[i])
			}
		}
		t.Fatalf("golden: fault sweep summaries drifted (%d cells)", len(want))
	}
}
