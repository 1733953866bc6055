package experiment

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mtmrp/internal/metrics"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
)

// -update regenerates the golden files from the current code. Run it only
// on a tree whose behaviour is known-good: the committed files pin the
// pre-optimisation results bit for bit.
var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// goldenRun is one pinned session: the scenario identity plus the full
// metrics.Result it must keep producing. Results round-trip through JSON
// losslessly (Go prints float64 shortest-exact), so equality on the decoded
// struct is bit equality on every metric, including the energy sums.
type goldenRun struct {
	Protocol string         `json:"protocol"`
	Topo     string         `json:"topo"`
	Size     int            `json:"size"`
	Run      int            `json:"run"`
	Events   uint64         `json:"events"`
	Result   metrics.Result `json:"result"`
}

// goldenScenario reproduces the exact per-round derivation GroupSizeSweep
// uses for one (size, run) cell: the same label string, the same RNG
// substreams, the same Scenario fields. Any drift in topology adjacency
// order, link order, receiver draws, or event ordering shows up here as a
// metrics mismatch.
func goldenScenario(t *testing.T, kind TopoKind, size, run int, p Protocol) goldenRun {
	t.Helper()
	out, err := Run(goldenCell(t, kind, size, run, p))
	if err != nil {
		t.Fatal(err)
	}
	return goldenRun{
		Protocol: p.String(),
		Topo:     kind.String(),
		Size:     size,
		Run:      run,
		Events:   out.Net.Sim.Processed(),
		Result:   out.Result,
	}
}

// goldenCell returns the scenario of one golden_fig5 row.
func goldenCell(t *testing.T, kind TopoKind, size, run int, p Protocol) Scenario {
	t.Helper()
	label := roundLabel(kind, size, run)
	round := rng.New(2010).Derive(label)
	topo, err := buildTopo(kind, round)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := topo.PickReceivers(0, size, round.Derive("receivers"))
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Topo: topo, Source: 0, Receivers: rcv, Protocol: p,
		N: 4, Delta: sim.Millisecond,
		Seed: round.Derive("run").Uint64(),
	}
}

// roundLabel mirrors GroupSizeSweep's label derivation for one cell.
func roundLabel(kind TopoKind, size, run int) string {
	cfg := SweepConfig{Topo: kind, Sizes: []int{size}}
	// GroupSizeSweep: label(i) with i%len(sizes) == 0 and i/len(sizes) == run.
	return sweepLabel(cfg, run)
}

func sweepLabel(cfg SweepConfig, run int) string {
	return "round-" + cfg.Topo.String() + "-" + itoa(cfg.Sizes[0]) + "-" + itoa(run)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestGoldenFig5Cell pins a fixed-seed Figure 5 cell (grid, 20 receivers)
// and a Figure 6 cell (random, 15 receivers) for every protocol: the
// Result of each session must stay byte-identical across performance work
// (link-table sharing, spatial indexing, event pooling).
func TestGoldenFig5Cell(t *testing.T) {
	var got []goldenRun
	for _, p := range AllProtocols {
		for run := 0; run < 2; run++ {
			got = append(got, goldenScenario(t, GridTopo, 20, run, p))
		}
	}
	for _, p := range AllProtocols {
		got = append(got, goldenScenario(t, RandomTopo, 15, 0, p))
	}

	path := filepath.Join("testdata", "golden_fig5.json")
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
		t.Logf("golden: wrote %d runs to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (run with -update on a known-good tree first)", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden: %d pinned runs, produced %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("golden mismatch for %s %s size=%d run=%d:\n want %+v\n  got %+v",
				want[i].Protocol, want[i].Topo, want[i].Size, want[i].Run, want[i], got[i])
		}
	}
}

// TestGoldenSweepSummary pins the folded Welford summaries of a miniature
// GroupSizeSweep — the same numbers the figure tables print — so the whole
// driver pipeline (paired rounds, shared tables, index-order folding) stays
// bit-identical, not just individual sessions.
func TestGoldenSweepSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sizes := []int{10, 20}
	res, err := GroupSizeSweep(SweepConfig{
		Topo:  GridTopo,
		Sizes: sizes,
		Runs:  3,
		Seed:  2010,
	})
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		Protocol string  `json:"protocol"`
		Size     int     `json:"size"`
		Metric   string  `json:"metric"`
		Mean     float64 `json:"mean"`
		CI95     float64 `json:"ci95"`
	}
	var got []cell
	for r, row := range res.Rows {
		for si, size := range sizes {
			for m := Metric(0); m < NumMetrics; m++ {
				s := res.Cells[r][si][m]
				got = append(got, cell{row, size, m.String(), s.Mean, s.CI95})
			}
		}
	}

	path := filepath.Join("testdata", "golden_sweep.json")
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
		t.Fatalf("golden: sweep summaries drifted (%d cells)", len(want))
	}
}
