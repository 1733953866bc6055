package experiment

import (
	"fmt"
	"slices"

	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/stats"
	"mtmrp/internal/topology"
	"mtmrp/internal/trace"
)

// TopoKind selects the evaluation topology family of §V.A.
type TopoKind uint8

// The two topologies of the paper's evaluation.
const (
	GridTopo   TopoKind = iota // 10x10 grid, 200x200 m, 40 m range
	RandomTopo                 // 200 uniform nodes, source at origin
)

// String implements fmt.Stringer.
func (k TopoKind) String() string {
	if k == GridTopo {
		return "grid"
	}
	return "random"
}

// buildTopo materialises the topology for one Monte-Carlo round. The grid
// is deterministic; the random topology is redrawn per round, as the paper
// does via setdest.
func buildTopo(kind TopoKind, round *rng.RNG) (*topology.Topology, error) {
	if kind == GridTopo {
		return topology.PaperGrid(), nil
	}
	return topology.PaperRandom(round.Derive("topology"))
}

// Metric indexes the three evaluation metrics of Figures 5–6.
type Metric int

// Metric identifiers.
const (
	MetricOverhead Metric = iota // normalized transmission overhead
	MetricExtraNodes
	MetricRelayProfit
	MetricDelivery // delivery ratio (not in the paper's figures; reported for fidelity)
	NumMetrics
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case MetricOverhead:
		return "normalized transmission overhead"
	case MetricExtraNodes:
		return "number of extra nodes"
	case MetricRelayProfit:
		return "average relay profit"
	case MetricDelivery:
		return "delivery ratio"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// SweepConfig parameterises a group-size sweep (Figures 5 and 6).
type SweepConfig struct {
	Topo      TopoKind
	Sizes     []int // multicast group sizes; paper: 5..60 step 5
	Runs      int   // Monte-Carlo rounds per size; paper: 100
	Seed      uint64
	Protocols []Protocol
	N         int      // biased-backoff N (default 4)
	Delta     sim.Time // slot unit δ (default 1 ms)

	Engine EngineOptions // worker pool, cancellation, progress, errors
}

// PaperSizes returns the group sizes of Figures 5–6: 5,10,...,60.
func PaperSizes() []int {
	var out []int
	for s := 5; s <= 60; s += 5 {
		out = append(out, s)
	}
	return out
}

// SweepResult holds one summary per (protocol, size, metric); the table's
// metrics are figureMetrics, indexed by Metric.
type SweepResult struct {
	Config SweepConfig
	Table
}

// Cell returns the summary for (protocol p, size index si, metric m).
func (r *SweepResult) Cell(p Protocol, si int, m Metric) stats.Summary {
	return r.Cells[slices.Index(r.Config.Protocols, p)][si][m]
}

// figureMetrics names the metric vector of Figures 5–6, index-aligned
// with Metric.
var figureMetrics = []string{"overhead", "extra_nodes", "relay_profit", "delivery"}

// measureFigure writes the Figure 5/6 metric vector of one run.
func measureFigure(out *Outcome, _ int, v []float64) {
	r := out.Result
	v[MetricOverhead] = float64(r.Transmissions)
	v[MetricExtraNodes] = float64(r.ExtraNodes)
	v[MetricRelayProfit] = r.AvgRelayProfit
	v[MetricDelivery] = r.DeliveryRatio
}

// checkBackoff rejects biased-backoff parameters the protocols cannot run.
func checkBackoff(n int, delta sim.Time) error {
	return require(n >= 1 && delta > 0, "backoff needs N >= 1 and δ > 0")
}

// GroupSizeSweep runs the Monte-Carlo sweep behind Figure 5 (grid) or
// Figure 6 (random). Rounds are paired: within a round, every protocol
// sees the identical topology and receiver draw, which removes placement
// variance from the comparison. One engine job is one round (all
// protocols), so a failed round drops symmetrically from every curve.
//
// On cancellation the partial result is returned alongside the error;
// sweep.PartialOK distinguishes that from a failed run's abort, where the
// result is nil.
func GroupSizeSweep(cfg SweepConfig) (*SweepResult, error) {
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = AllProtocols
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 100
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = PaperSizes()
	}
	if cfg.N == 0 {
		cfg.N = 4
	}
	if cfg.Delta == 0 {
		cfg.Delta = sim.Millisecond
	}
	t, err := (&study{
		topo: cfg.Topo, seed: cfg.Seed, runs: cfg.Runs,
		rows:     protocolRows(cfg.Protocols),
		axisName: "size", axis: ticks("%d", cfg.Sizes),
		metrics: figureMetrics,
		// The label — and therefore a round's RNG stream — depends only
		// on (size, run), not on the size set or the job order.
		label: func(ai, run int) string {
			return fmt.Sprintf("round-%s-%d-%d", cfg.Topo, cfg.Sizes[ai], run)
		},
		group: func(ai int) int { return cfg.Sizes[ai] },
		check: func(int) error { return checkBackoff(cfg.N, cfg.Delta) },
		scenario: func(sc Scenario, row, _ int, _ *rng.RNG) Scenario {
			sc.Protocol, sc.N, sc.Delta = cfg.Protocols[row], cfg.N, cfg.Delta
			return sc
		},
		measure: measureFigure,
	}).run(cfg.Engine)
	if t == nil {
		return nil, err
	}
	return &SweepResult{cfg, *t}, err
}

// TuningConfig parameterises the N x δ sweep of Figures 7–8.
type TuningConfig struct {
	Topo      TopoKind
	GroupSize int // paper: 20 (grid, Fig. 7) / 15 (random, Fig. 8)
	Ns        []int
	Deltas    []sim.Time
	Runs      int
	Seed      uint64
	Protocols []Protocol

	Engine EngineOptions // worker pool, cancellation, progress, errors
}

// PaperNs returns the N axis of Figures 7–8.
func PaperNs() []int { return []int{3, 4, 5, 6} }

// PaperDeltas returns the δ axis of Figures 7–8 (1–30 ms).
func PaperDeltas() []sim.Time {
	return []sim.Time{
		1 * sim.Millisecond, 5 * sim.Millisecond, 10 * sim.Millisecond,
		15 * sim.Millisecond, 20 * sim.Millisecond, 25 * sim.Millisecond,
		30 * sim.Millisecond,
	}
}

// TuningResult holds the overhead surface per protocol. The axis is the
// (N, δ) grid, N-major: point ni*len(Deltas)+di is (Ns[ni], Deltas[di]);
// the one metric is the normalized transmission overhead.
type TuningResult struct {
	Config TuningConfig
	Table
}

// TuningSweep runs the parameter study behind Figures 7–8. Every (N, δ)
// cell of the same run index shares one label — and therefore one
// topology and receiver draw — so the surface isolates the backoff
// parameters from placement noise.
func TuningSweep(cfg TuningConfig) (*TuningResult, error) {
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = AllProtocols
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 100
	}
	if len(cfg.Ns) == 0 {
		cfg.Ns = PaperNs()
	}
	if len(cfg.Deltas) == 0 {
		cfg.Deltas = PaperDeltas()
	}
	if cfg.GroupSize == 0 {
		if cfg.Topo == GridTopo {
			cfg.GroupSize = 20
		} else {
			cfg.GroupSize = 15
		}
	}
	nd := len(cfg.Deltas)
	var axis []string
	for _, n := range cfg.Ns {
		for _, d := range cfg.Deltas {
			axis = append(axis, fmt.Sprintf("%d/%gms", n, d.Millis()))
		}
	}
	t, err := (&study{
		topo: cfg.Topo, seed: cfg.Seed, runs: cfg.Runs,
		rows:     protocolRows(cfg.Protocols),
		axisName: "N/delta", axis: axis,
		metrics: []string{"overhead"},
		label: func(_, run int) string {
			return fmt.Sprintf("tuning-%s-%d-%d", cfg.Topo, cfg.GroupSize, run)
		},
		group: fixedGroup(cfg.GroupSize),
		check: func(ai int) error { return checkBackoff(cfg.Ns[ai/nd], cfg.Deltas[ai%nd]) },
		scenario: func(sc Scenario, row, ai int, _ *rng.RNG) Scenario {
			sc.Protocol, sc.N, sc.Delta = cfg.Protocols[row], cfg.Ns[ai/nd], cfg.Deltas[ai%nd]
			return sc
		},
		measure: func(out *Outcome, _ int, v []float64) { v[0] = float64(out.Result.Transmissions) },
	}).run(cfg.Engine)
	if t == nil {
		return nil, err
	}
	return &TuningResult{cfg, *t}, err
}

// SnapshotRun reproduces one panel of Figures 9–10: a single session on a
// fixed seed, returning the rendered field and the caption counts.
func SnapshotRun(kind TopoKind, groupSize int, p Protocol, seed uint64) (*trace.Snapshot, *Outcome, error) {
	round := rng.New(seed).Derive(fmt.Sprintf("snapshot-%s-%d", kind, groupSize))
	topo, err := buildTopo(kind, round)
	if err != nil {
		return nil, nil, err
	}
	rcv, err := topo.PickReceivers(0, groupSize, round.Derive("receivers"))
	if err != nil {
		return nil, nil, err
	}
	out, err := Run(Scenario{
		Topo: topo, Source: 0, Receivers: rcv, Protocol: p,
		Seed: round.Derive("run").Uint64(),
	})
	if err != nil {
		return nil, nil, err
	}
	var fwd []int
	for _, f := range out.Result.Forwarders {
		fwd = append(fwd, int(f))
	}
	snap := trace.NewSnapshot(topo.Side, topo.Positions, 0, rcv, fwd)
	return snap, out, nil
}
