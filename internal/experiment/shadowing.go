package experiment

import (
	"fmt"

	"mtmrp/internal/rng"
)

// Shadowing robustness study (extension). The paper's evaluation disables
// log-normal shadowing, giving every node a crisp 40 m disc. Real WSN
// links fade; this driver re-runs the Figure 5 comparison point under
// increasing shadowing deviations to check whether MTMRP's ordering
// survives probabilistic links.

// ShadowingConfig parameterises the study.
type ShadowingConfig struct {
	Topo      TopoKind
	GroupSize int
	SigmasDB  []float64 // shadowing deviations; 0 reproduces the paper
	Runs      int
	Seed      uint64
	Protocols []Protocol

	Engine EngineOptions // worker pool, cancellation, progress, errors
}

// ShadowingSweep runs the study on the shared paired-round engine. The
// table holds per-(protocol, sigma) summaries of two metrics: overhead
// (transmissions) and delivery ratio.
func ShadowingSweep(cfg ShadowingConfig) (*Table, error) {
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = AllProtocols
	}
	if len(cfg.SigmasDB) == 0 {
		cfg.SigmasDB = []float64{0, 1, 2, 3}
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 30
	}
	orDefault(&cfg.GroupSize, defaultGroupSize)
	return (&study{
		topo: cfg.Topo, seed: cfg.Seed, runs: cfg.Runs,
		rows:     protocolRows(cfg.Protocols),
		axisName: "sigma_db", axis: ticks("%g", cfg.SigmasDB),
		metrics: []string{"overhead", "delivery"},
		// Labels carry the sigma index, not its value.
		label: func(ai, run int) string {
			return fmt.Sprintf("shadow-%s-%d-%d", cfg.Topo, ai, run)
		},
		group: fixedGroup(cfg.GroupSize),
		check: func(ai int) error { return require(cfg.SigmasDB[ai] >= 0, "deviation must be >= 0 dB") },
		scenario: func(sc Scenario, row, ai int, _ *rng.RNG) Scenario {
			sc.Protocol, sc.Radio.ShadowingSigmaDB = cfg.Protocols[row], cfg.SigmasDB[ai]
			return sc
		},
		measure: func(out *Outcome, _ int, v []float64) {
			v[0], v[1] = float64(out.Result.Transmissions), out.Result.DeliveryRatio
		},
	}).run(cfg.Engine)
}
