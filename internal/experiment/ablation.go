package experiment

import (
	"fmt"

	"mtmrp/internal/core"
	"mtmrp/internal/proto"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
)

// AblationVariant is one MTMRP configuration in the ablation study: the
// full protocol with exactly one mechanism removed (plus the full and
// fully-stripped endpoints). DESIGN.md §9 calls this study out; the paper
// itself only ablates PHS (its "MTMRP w/o PHS" curves).
type AblationVariant struct {
	Name   string
	Config core.Config
}

// AblationVariants returns the standard set for the given N and δ.
func AblationVariants(n int, delta sim.Time) []AblationVariant {
	base := func() core.Config {
		c := core.DefaultConfig()
		c.N = n
		c.Delta = delta
		c.Proto = proto.DefaultConfig()
		return c
	}
	full := base()

	noPHS := base()
	noPHS.PHS = false

	noRelay := base()
	noRelay.DisableRelayBias = true

	noPath := base()
	noPath.DisablePathBias = true

	noMember := base()
	noMember.DisableMemberBias = true

	none := base()
	none.PHS = false
	none.DisableRelayBias = true
	none.DisablePathBias = true
	none.DisableMemberBias = true

	return []AblationVariant{
		{Name: "full MTMRP", Config: full},
		{Name: "- PHS", Config: noPHS},
		{Name: "- relay bias (Eq.2)", Config: noRelay},
		{Name: "- path bias (Eq.3)", Config: noPath},
		{Name: "- member bias (Eq.4)", Config: noMember},
		{Name: "none (ODMRP-like)", Config: none},
	}
}

// AblationConfig parameterises the study.
type AblationConfig struct {
	Topo      TopoKind
	GroupSize int
	Runs      int
	Seed      uint64
	N         int
	Delta     sim.Time

	Engine EngineOptions // worker pool, cancellation, progress, errors
}

// AblationResult holds per-(variant, metric) summaries: the table's rows
// are AblationVariants in order, its one axis point is the group size and
// its metrics are figureMetrics, indexed by Metric.
type AblationResult struct {
	Config AblationConfig
	Table
}

// AblationSweep measures each mechanism's contribution to MTMRP's
// transmission savings on the given workload. One engine job is one
// Monte-Carlo round across all variants, on a shared topology and
// receiver draw.
func AblationSweep(cfg AblationConfig) (*AblationResult, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 100
	}
	if cfg.GroupSize == 0 {
		cfg.GroupSize = 20
	}
	if cfg.N == 0 {
		cfg.N = 4
	}
	if cfg.Delta == 0 {
		cfg.Delta = sim.Millisecond
	}
	variants := AblationVariants(cfg.N, cfg.Delta)
	rows := make([]string, len(variants))
	for i, v := range variants {
		rows[i] = v.Name
	}
	t, err := (&study{
		topo: cfg.Topo, seed: cfg.Seed, runs: cfg.Runs,
		rows:     rows,
		axisName: "group", axis: ticks("%d", []int{cfg.GroupSize}),
		metrics: figureMetrics,
		label: func(_, run int) string {
			return fmt.Sprintf("ablation-%s-%d-%d", cfg.Topo, cfg.GroupSize, run)
		},
		group: fixedGroup(cfg.GroupSize),
		check: func(int) error { return checkBackoff(cfg.N, cfg.Delta) },
		// Each variant is a session shape of its own; all of them run the
		// default protocol timing, so a round simulates HELLO once.
		scenario: func(sc Scenario, row, _ int, _ *rng.RNG) Scenario {
			sc.Protocol, sc.Core = MTMRP, &variants[row].Config
			return sc
		},
		measure: measureFigure,
	}).run(cfg.Engine)
	if t == nil {
		return nil, err
	}
	return &AblationResult{cfg, *t}, err
}
