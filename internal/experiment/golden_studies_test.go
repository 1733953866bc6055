package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mtmrp/internal/sim"
	"mtmrp/internal/stats"
)

// studyCell is one pinned (study, row, axis point, metric) summary of a
// miniature driver run. The whole stats.Summary is pinned — N, Mean, Std,
// CI95, Min and Max — so a change in the paired-round derivation, the
// row or job order, or the fold order shows up as a mismatch.
type studyCell struct {
	Study   string        `json:"study"`
	Row     string        `json:"row"`
	Axis    string        `json:"axis"`
	Metric  string        `json:"metric"`
	Summary stats.Summary `json:"summary"`
}

// miniStudies runs a miniature of each driver that has no golden table of
// its own (tuning, ablation, amortize, shadowing) and flattens the results
// row, axis point, metric.
func miniStudies(t *testing.T) []studyCell {
	t.Helper()
	var out []studyCell
	flatten := func(study string, tab *Table, axis, metrics []string) {
		for r, row := range tab.Rows {
			for ai, tick := range axis {
				for m, name := range metrics {
					out = append(out, studyCell{study, row, tick, name, tab.Cells[r][ai][m]})
				}
			}
		}
	}

	tcfg := TuningConfig{
		Topo: GridTopo, GroupSize: 8, Ns: []int{3, 5}, Deltas: []sim.Time{5 * sim.Millisecond},
		Runs: 3, Seed: 2010,
	}
	tun, err := TuningSweep(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	var axis []string
	for _, n := range tcfg.Ns {
		for _, d := range tcfg.Deltas {
			axis = append(axis, fmt.Sprintf("N=%d delta=%gms", n, d.Millis()))
		}
	}
	flatten("tuning", tun, axis, tun.Metrics)

	const group = 8
	abl, err := AblationSweep(AblationConfig{Topo: GridTopo, GroupSize: group, Runs: 3, Seed: 2010})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for m := Metric(0); m < NumMetrics; m++ {
		names = append(names, m.String())
	}
	flatten("ablation", abl, []string{fmt.Sprintf("group=%d", group)}, names)

	packets := []int{1, 4}
	am, err := AmortizeSweep(AmortizeConfig{
		Topo: GridTopo, GroupSize: group, Packets: packets, Runs: 3, Seed: 2010,
	})
	if err != nil {
		t.Fatal(err)
	}
	flatten("amortize", am, ticks("packets=%d", packets), am.Metrics)

	sigmas := []float64{0, 2}
	sh, err := ShadowingSweep(ShadowingConfig{
		Topo: GridTopo, GroupSize: group, SigmasDB: sigmas, Runs: 3, Seed: 2010,
	})
	if err != nil {
		t.Fatal(err)
	}
	flatten("shadowing", sh, ticks("sigma_db=%g", sigmas), sh.Metrics)
	return out
}

// TestGoldenStudies pins the folded summaries of the tuning, ablation,
// amortize and shadowing drivers bit for bit, the way golden_sweep.json,
// golden_faults.json and golden_mobility.json pin the other three.
func TestGoldenStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	got := miniStudies(t)
	path := filepath.Join("testdata", "golden_studies.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
	var want []studyCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden: %d pinned cells, produced %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("golden mismatch:\n want %+v\n  got %+v", want[i], got[i])
		}
	}
}
