package experiment

import (
	"fmt"

	"mtmrp/internal/channel"
	"mtmrp/internal/fault"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
)

// Fault robustness study (extension). The paper's evaluation keeps every
// node alive for the whole session; this driver re-runs the evaluation
// point under increasing node-failure rates to measure how well each
// protocol's soft state (forwarder expiry + periodic JoinQuery refresh)
// copes with the failures. The x-axis is the per-node crash probability;
// the y-axes are delivery (mean/min PDR over the group) and repair
// behaviour (closed gaps, time to close them). The schedule is armed when
// the session starts, and the HELLO phase's drain fires all of it (see
// FaultConfig.FaultStart): today every crash happens before discovery,
// not during the traffic.

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
	// FaultStart/FaultWindow bound crash onsets, in virtual time from the
	// session start (defaults 1.2 s + 800 ms). The schedule is armed at
	// session start and Session.RunHello drains the event queue, so every
	// fault fires inside the HELLO phase whatever its time: the defaults
	// land after the last beacon (about 1.1 s) but before the first
	// discovery flood, which starts once the last crash has happened (at
	// f=0.2 on the grid the clock reads about 2 s). Discovery and the
	// paced traffic then run on the already-damaged network; no crash
	// lands mid-traffic.
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

// faultMetrics names the fault-sweep metric vector, index-aligned with
// FaultMetric.
var faultMetrics = []string{"mean_pdr", "min_pdr", "repairs", "repair_time_ms"}

// FaultSweep runs the fault-robustness study on the shared paired-round
// engine. Each round draws its topology, receiver group and crash
// schedule from the round's RNG substreams (the schedule via planFaults,
// protecting the source), so the whole sweep is a pure function of
// (config, seed): bit-identical across worker counts and across pooled
// versus fresh sessions. The table's rows are the protocols, its axis the
// fail fractions and its metrics faultMetrics, indexed by FaultMetric.
func FaultSweep(cfg FaultConfig) (*Table, error) {
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = AllProtocols
	}
	if len(cfg.FailFractions) == 0 {
		cfg.FailFractions = defaultFailFractions()
	}
	if cfg.Runs <= 0 {
		cfg.Runs = pacedRuns
	}
	orDefault(&cfg.GroupSize, defaultGroupSize)
	orDefault(&cfg.Packets, pacedPackets)
	orDefault(&cfg.Interval, pacedInterval)
	orDefault(&cfg.RefreshInterval, pacedRefresh)
	orDefault(&cfg.ForwarderExpiry, pacedExpiry)
	orDefault(&cfg.FaultStart, defaultFaultStart)
	orDefault(&cfg.FaultWindow, defaultFaultWindow)
	fracs := cfg.FailFractions
	return (&study{
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
				Schedule:        planFaults(sc.Topo.N(), fracs[ai], cfg.FaultStart, cfg.FaultWindow, cfg.Downtime, round),
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
}

// planFaults draws a crash schedule from r's "faults" substream over a
// field of the given size, protecting the source (node 0): the one plan
// build behind FaultSweep's rounds and RunSpec.Scenario.
func planFaults(nodes int, frac float64, start, window, downtime sim.Time, r *rng.RNG) fault.Schedule {
	return fault.Plan(fault.PlanConfig{
		Nodes:        nodes,
		Protect:      []int{0},
		FailFraction: frac,
		Start:        start,
		Window:       window,
		Downtime:     downtime,
	}, r.Derive("faults"))
}
