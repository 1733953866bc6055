package experiment

import (
	"testing"

	"mtmrp/internal/core"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

func TestAblationVariants(t *testing.T) {
	vs := AblationVariants(4, sim.Millisecond)
	if len(vs) != 6 {
		t.Fatalf("variants = %d, want 6", len(vs))
	}
	if vs[0].Name != "full MTMRP" || vs[0].Config.DisableRelayBias {
		t.Error("full variant misconfigured")
	}
	last := vs[len(vs)-1].Config
	if last.PHS || !last.DisableRelayBias || !last.DisablePathBias || !last.DisableMemberBias {
		t.Error("stripped variant misconfigured")
	}
	for _, v := range vs {
		if err := v.Config.Validate(); err != nil {
			t.Errorf("%s: %v", v.Name, err)
		}
	}
}

func TestAblationSweepSmall(t *testing.T) {
	res, err := AblationSweep(AblationConfig{
		Topo: GridTopo, GroupSize: 10, Runs: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 || len(res.Cells) != 6 {
		t.Fatalf("summary rows = %d", len(res.Cells))
	}
	for vi, name := range res.Rows {
		row := res.Cells[vi][0]
		if row[MetricOverhead].N != 3 {
			t.Errorf("%s: n = %d", name, row[MetricOverhead].N)
		}
		if row[MetricOverhead].Mean <= 0 {
			t.Errorf("%s: zero overhead", name)
		}
	}
}

func TestCoreOverrideUsed(t *testing.T) {
	topo := topology.PaperGrid()
	cfg := core.DefaultConfig()
	cfg.DisableRelayBias = true
	cfg.DisablePathBias = true
	out, err := Run(Scenario{
		Topo: topo, Source: 0, Receivers: []int{55}, Protocol: MTMRP,
		Core: &cfg, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := out.Routers[1].(*core.Router)
	if !ok {
		t.Fatal("router type")
	}
	if !r.Config().DisableRelayBias {
		t.Error("Core override ignored")
	}
}
