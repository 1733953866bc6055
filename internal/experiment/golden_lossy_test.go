package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mtmrp/internal/channel"
)

// miniLossy runs a miniature FaultSweep with the Gilbert–Elliott loss model
// on, over the grid and random topologies, and flattens every cell's full
// summary. The loss chain and degradation draws happen per link inside the
// channel's transmission fan, so this pins their order and outcomes the
// way no loss-free golden can.
func miniLossy(t *testing.T) []studyCell {
	t.Helper()
	loss := channel.DefaultLossConfig()
	var out []studyCell
	for _, topo := range []TopoKind{GridTopo, RandomTopo} {
		res, err := FaultSweep(FaultConfig{
			Topo:          topo,
			GroupSize:     10,
			FailFractions: []float64{0, 0.2},
			Runs:          2,
			Seed:          77,
			Protocols:     AllProtocols,
			Packets:       8,
			Loss:          &loss,
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, row := range res.Rows {
			for ai, tick := range res.Axis {
				for m, name := range res.Metrics {
					out = append(out, studyCell{"faults-lossy-" + topo.String(), row, tick, name, res.Cells[r][ai][m]})
				}
			}
		}
	}
	return out
}

// TestGoldenLossy pins a lossy fault sweep bit for bit: the Gilbert–Elliott
// chain steps, drop draws and their CS-list order.
func TestGoldenLossy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	got := miniLossy(t)
	path := filepath.Join("testdata", "golden_lossy.json")
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
