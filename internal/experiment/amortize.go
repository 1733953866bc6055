package experiment

import (
	"fmt"

	"mtmrp/internal/rng"
)

// Amortization study (extension). §V.B.3 notes that "the price paying for
// the reduced transmission cost for DODMRP and MTMRP is the introduced
// backoff delay ... during the multicast tree construction phase. However,
// during the data forwarding phase, the transmission overhead can be
// reduced significantly." This driver quantifies that trade-off: total
// frames on the air (control + data) per delivered data packet, as the
// number of data packets per constructed tree grows.

// AmortizeConfig parameterises the study.
type AmortizeConfig struct {
	Topo      TopoKind
	GroupSize int
	Packets   []int // data packets per session, e.g. 1, 5, 10, 50
	Runs      int
	Seed      uint64
	Protocols []Protocol

	Engine EngineOptions // worker pool, cancellation, progress, errors
}

// AmortizeResult holds per-(protocol, packet count) summaries of two
// metrics: frames_per_packet = (control frames + total data frames) /
// packets, and data_per_packet = total data frames / packets (the
// steady-state cost).
type AmortizeResult struct {
	Config AmortizeConfig
	Table
}

// AmortizeSweep runs the study on the shared paired-round engine.
func AmortizeSweep(cfg AmortizeConfig) (*AmortizeResult, error) {
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = []Protocol{MTMRP, ODMRP, Flooding}
	}
	if len(cfg.Packets) == 0 {
		cfg.Packets = []int{1, 5, 10, 50}
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 20
	}
	if cfg.GroupSize == 0 {
		cfg.GroupSize = 20
	}
	t, err := (&study{
		topo: cfg.Topo, seed: cfg.Seed, runs: cfg.Runs,
		rows:     protocolRows(cfg.Protocols),
		axisName: "packets", axis: ticks("%d", cfg.Packets),
		metrics: []string{"frames_per_packet", "data_per_packet"},
		label: func(ai, run int) string {
			return fmt.Sprintf("amortize-%s-%d-%d", cfg.Topo, cfg.Packets[ai], run)
		},
		group: fixedGroup(cfg.GroupSize),
		check: func(ai int) error { return require(cfg.Packets[ai] >= 1, "packet count must be >= 1") },
		scenario: func(sc Scenario, row, ai int, _ *rng.RNG) Scenario {
			sc.Protocol, sc.Traffic.DataPackets = cfg.Protocols[row], cfg.Packets[ai]
			return sc
		},
		measure: func(out *Outcome, ai int, v []float64) {
			r, packets := out.Result, float64(cfg.Packets[ai])
			v[0] = float64(r.ControlTx+r.DataTxTotal) / packets
			v[1] = float64(r.DataTxTotal) / packets
		},
	}).run(cfg.Engine)
	if t == nil {
		return nil, err
	}
	return &AmortizeResult{cfg, *t}, err
}
