package experiment

import (
	"fmt"
	"slices"

	"mtmrp/internal/channel"
	"mtmrp/internal/fault"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/stats"
)

// Fault robustness study (extension). The paper's evaluation keeps every
// node alive for the whole session; this driver re-runs the evaluation
// point under increasing node-failure rates to measure how well each
// protocol's soft state (forwarder expiry + periodic JoinQuery refresh)
// repairs the multicast structure mid-traffic. The x-axis is the per-node
// crash probability; the y-axes are delivery (mean/min PDR over the
// group) and repair behaviour (closed gaps, time to close them).

// FaultMetric indexes the robustness metric vector of a fault sweep.
type FaultMetric int

// Fault-sweep metric identifiers.
const (
	FaultMeanPDR  FaultMetric = iota // mean per-receiver packet delivery ratio
	FaultMinPDR                      // worst receiver's delivery ratio
	FaultRepairs                     // closed delivery gaps per run
	FaultRepairMs                    // mean time-to-repair, milliseconds
	NumFaultMetrics
)

// String implements fmt.Stringer.
func (m FaultMetric) String() string {
	switch m {
	case FaultMeanPDR:
		return "mean packet delivery ratio"
	case FaultMinPDR:
		return "minimum packet delivery ratio"
	case FaultRepairs:
		return "repairs"
	case FaultRepairMs:
		return "mean time to repair (ms)"
	default:
		return fmt.Sprintf("FaultMetric(%d)", int(m))
	}
}

// FaultConfig parameterises the fault-robustness sweep.
type FaultConfig struct {
	Topo          TopoKind
	GroupSize     int
	FailFractions []float64 // per-node crash probabilities; 0 reproduces the fault-free run
	Runs          int
	Seed          uint64
	Protocols     []Protocol

	// Packets and Interval shape the paced data phase the faults land in
	// (defaults: 20 packets, 50 ms apart — a 1 s traffic window).
	Packets  int
	Interval sim.Time
	// RefreshInterval re-floods the JoinQuery during traffic; ForwarderExpiry
	// ages forwarder flags out between refreshes. Together they are the
	// repair mechanism the sweep measures (defaults 200 ms / 300 ms).
	RefreshInterval sim.Time
	ForwarderExpiry sim.Time
	// FaultStart/FaultWindow bound crash onsets. The defaults (1.2 s + 800 ms)
	// put them inside the paced data phase, which begins once the HELLO
	// rounds (3 x 500 ms) and discovery floods drain at about 1.15 s.
	FaultStart  sim.Time
	FaultWindow sim.Time
	// Downtime, when nonzero, revives each crashed node after that long;
	// zero (the default) makes crashes permanent, so every repair is a
	// reroute rather than the dead node coming back.
	Downtime sim.Time
	// Loss optionally layers ambient Gilbert–Elliott loss under the
	// crashes; nil (the default) keeps the study crash-only.
	Loss *channel.LossConfig

	// ValueLabels switches round labels from axis-index form
	// ("fault-<topo>-<idx>-<run>") to axis-value form
	// ("fault-<topo>-<frac>-<run>"). A job's RNG derives from its label, so
	// value labels make every cell a pure function of (topo, fraction, run)
	// independent of the fraction set — per-fraction sub-sweeps then compose
	// bit-identically with the full sweep, which is what the sweep-kind
	// registry's Split relies on. Off by default: the index labels are
	// frozen into the golden fault tables.
	ValueLabels bool

	Engine EngineOptions // worker pool, cancellation, progress, errors
}

// FaultResult holds per-(protocol, fail-fraction) summaries of the
// faultMetrics vector, indexed by FaultMetric.
type FaultResult struct {
	Config FaultConfig
	Table
}

// Cell returns the summary for one (protocol, fail fraction, metric) point.
func (r *FaultResult) Cell(p Protocol, fi int, m FaultMetric) stats.Summary {
	return r.Cells[slices.Index(r.Config.Protocols, p)][fi][m]
}

// faultMetrics names the fault-sweep metric vector, index-aligned with
// FaultMetric.
var faultMetrics = []string{"mean_pdr", "min_pdr", "repairs", "repair_time_ms"}

// FaultSweep runs the fault-robustness study on the shared paired-round
// engine. Each round draws its topology, receiver group and crash
// schedule from the round's RNG substreams (the schedule via fault.Plan,
// protecting the source), so the whole sweep is a pure function of
// (config, seed): bit-identical across worker counts and across pooled
// versus fresh sessions.
func FaultSweep(cfg FaultConfig) (*FaultResult, error) {
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = AllProtocols
	}
	if len(cfg.FailFractions) == 0 {
		cfg.FailFractions = []float64{0, 0.05, 0.1, 0.2, 0.3}
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 20
	}
	if cfg.GroupSize == 0 {
		cfg.GroupSize = 20
	}
	if cfg.Packets == 0 {
		cfg.Packets = 20
	}
	if cfg.Interval == 0 {
		cfg.Interval = 50 * sim.Millisecond
	}
	if cfg.RefreshInterval == 0 {
		cfg.RefreshInterval = 200 * sim.Millisecond
	}
	if cfg.ForwarderExpiry == 0 {
		cfg.ForwarderExpiry = 300 * sim.Millisecond
	}
	if cfg.FaultStart == 0 {
		cfg.FaultStart = 1200 * sim.Millisecond
	}
	if cfg.FaultWindow == 0 {
		cfg.FaultWindow = 800 * sim.Millisecond
	}
	fracs := cfg.FailFractions
	t, err := (&study{
		topo: cfg.Topo, seed: cfg.Seed, runs: cfg.Runs,
		rows:     protocolRows(cfg.Protocols),
		axisName: "fail_fraction", axis: ticks("%g", fracs),
		metrics: faultMetrics,
		label: func(ai, run int) string {
			if cfg.ValueLabels {
				return fmt.Sprintf("fault-%s-%g-%d", cfg.Topo, fracs[ai], run)
			}
			return fmt.Sprintf("fault-%s-%d-%d", cfg.Topo, ai, run)
		},
		group: fixedGroup(cfg.GroupSize),
		check: func(ai int) error {
			return require(fracs[ai] >= 0 && fracs[ai] <= 1 && cfg.Packets >= 1,
				"fail fraction must be within [0, 1] and packets >= 1")
		},
		// One schedule per round, shared by every protocol: Derive is a
		// pure function of (round, name), so re-deriving "faults" per row
		// replays the identical crash pattern, and the protocols compete
		// on the same disaster.
		scenario: func(sc Scenario, row, ai int, round *rng.RNG) Scenario {
			sc.Protocol = cfg.Protocols[row]
			sc.Traffic = TrafficOptions{
				DataPackets:     cfg.Packets,
				Interval:        cfg.Interval,
				RefreshInterval: cfg.RefreshInterval,
			}
			sc.Faults = FaultOptions{
				Schedule: fault.Plan(fault.PlanConfig{
					Nodes:        sc.Topo.N(),
					Protect:      []int{0},
					FailFraction: fracs[ai],
					Start:        cfg.FaultStart,
					Window:       cfg.FaultWindow,
					Downtime:     cfg.Downtime,
				}, round.Derive("faults")),
				Loss:            cfg.Loss,
				ForwarderExpiry: cfg.ForwarderExpiry,
			}
			return sc
		},
		measure: func(out *Outcome, _ int, v []float64) {
			rb := out.Robustness
			v[FaultMeanPDR], v[FaultMinPDR] = rb.MeanPDR, rb.MinPDR
			v[FaultRepairs] = float64(rb.Repairs)
			v[FaultRepairMs] = float64(rb.MeanTimeToRepair) / float64(sim.Millisecond)
		},
	}).run(cfg.Engine)
	if t == nil {
		return nil, err
	}
	return &FaultResult{cfg, *t}, err
}
