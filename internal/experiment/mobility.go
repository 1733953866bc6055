package experiment

import (
	"fmt"

	"mtmrp/internal/mobility"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
)

// Mobility study (extension). The paper's evaluation is static; this
// driver re-runs the evaluation point with nodes in motion to measure how
// each protocol's discovery refresh holds a multicast structure together
// while the topology drifts under it. The x-axis is the (speed, pause)
// grid of a random-waypoint field; the y-axes are delivery (mean/min PDR
// over the group), the control overhead paid to keep it, and the repairs
// the soft state performs.

// MobilityMetric indexes the metric vector of a mobility sweep.
type MobilityMetric int

// Mobility-sweep metric identifiers.
const (
	MobilityMeanPDR   MobilityMetric = iota // mean per-receiver packet delivery ratio
	MobilityMinPDR                          // worst receiver's delivery ratio
	MobilityControlTx                       // control transmissions per run
	MobilityRepairs                         // closed delivery gaps per run
	NumMobilityMetrics
)

// String implements fmt.Stringer.
func (m MobilityMetric) String() string {
	switch m {
	case MobilityMeanPDR:
		return "mean packet delivery ratio"
	case MobilityMinPDR:
		return "minimum packet delivery ratio"
	case MobilityControlTx:
		return "control transmissions"
	case MobilityRepairs:
		return "repairs"
	default:
		return fmt.Sprintf("MobilityMetric(%d)", int(m))
	}
}

// MobilityPoint is one x-axis point of the sweep: a maximum node speed and
// a waypoint pause. Speed 0 is the static control — it leaves the
// Mobility group zero, so those runs take the shared static link-table
// path and double as the sweep's regression anchor.
type MobilityPoint struct {
	Speed float64
	Pause sim.Time
}

// String implements fmt.Stringer, matching figure tick labels.
func (p MobilityPoint) String() string {
	return fmt.Sprintf("%gm/s/%dms", p.Speed, int64(p.Pause/sim.Millisecond))
}

// MobilityConfig parameterises the mobility sweep. Points is the cross
// product of Speeds and Pauses.
type MobilityConfig struct {
	Topo      TopoKind
	GroupSize int
	Speeds    []float64  // maximum node speeds in m/s; 0 reproduces the static run
	Pauses    []sim.Time // waypoint pauses; each speed is swept at each pause
	Runs      int
	Seed      uint64
	Protocols []Protocol

	// Model selects the motion model for the moving points (default
	// random waypoint; RPGM sweeps correlated group motion instead).
	Model mobility.Model

	// Packets and Interval shape the paced data phase the motion runs
	// under (defaults: 20 packets, 50 ms apart — a 1 s traffic window).
	Packets  int
	Interval sim.Time
	// RefreshInterval re-floods the JoinQuery during traffic;
	// ForwarderExpiry ages forwarder flags out between refreshes. Together
	// they are the repair mechanism racing the motion (defaults
	// 200 ms / 300 ms).
	RefreshInterval sim.Time
	ForwarderExpiry sim.Time

	Engine EngineOptions // worker pool, cancellation, progress, errors

	// ValueLabels switches round labels from axis-index form
	// ("mobility-<topo>-<idx>-<run>") to axis-value form
	// ("mobility-<topo>-<speed>-<pauseMs>-<run>"). A job's RNG derives from
	// its label, so value labels make every cell a pure function of (topo,
	// speed, pause, run) independent of the point set — per-point sub-sweeps
	// then compose bit-identically with the full sweep, which is what the
	// sweep-kind registry's Split relies on. Off by default: the index
	// labels are frozen into the golden mobility tables.
	ValueLabels bool
}

// Points expands the configured speed and pause axes into the sweep's
// x-axis, speed-major: all pauses of the first speed, then the next.
func (cfg *MobilityConfig) Points() []MobilityPoint {
	pts := make([]MobilityPoint, 0, len(cfg.Speeds)*len(cfg.Pauses))
	for _, s := range cfg.Speeds {
		for _, p := range cfg.Pauses {
			pts = append(pts, MobilityPoint{Speed: s, Pause: p})
		}
	}
	return pts
}

// mobilityMetrics names the mobility-sweep metric vector, index-aligned
// with MobilityMetric.
var mobilityMetrics = []string{"mean_pdr", "min_pdr", "control_tx", "repairs"}

// MobilitySweep runs the mobility study on the shared paired-round
// engine. Each round draws its topology and receiver group from the
// round's RNG substreams; the motion plan itself is drawn inside the
// session from the run seed's "mobility" substream, so every protocol at
// a point rides the identical motion and the whole sweep is a pure
// function of (config, seed): bit-identical across worker counts and
// across pooled versus fresh sessions. The table's rows are the
// protocols, its axis Points() and its metrics mobilityMetrics, indexed
// by MobilityMetric.
func MobilitySweep(cfg MobilityConfig) (*Table, error) {
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = AllProtocols
	}
	if len(cfg.Speeds) == 0 {
		cfg.Speeds = defaultSpeeds()
	}
	if len(cfg.Pauses) == 0 {
		cfg.Pauses = defaultPauses()
	}
	orDefault(&cfg.Model, defaultMotion)
	if cfg.Runs <= 0 {
		cfg.Runs = pacedRuns
	}
	orDefault(&cfg.GroupSize, defaultGroupSize)
	orDefault(&cfg.Packets, pacedPackets)
	orDefault(&cfg.Interval, pacedInterval)
	orDefault(&cfg.RefreshInterval, pacedRefresh)
	orDefault(&cfg.ForwarderExpiry, pacedExpiry)
	points := cfg.Points()
	return (&study{
		topo: cfg.Topo, seed: cfg.Seed, runs: cfg.Runs,
		rows:     protocolRows(cfg.Protocols),
		axisName: "speed/pause", axis: ticks("%v", points),
		metrics: mobilityMetrics,
		label: func(ai, run int) string {
			if cfg.ValueLabels {
				pt := points[ai]
				return fmt.Sprintf("mobility-%s-%g-%g-%d", cfg.Topo,
					pt.Speed, float64(pt.Pause)/float64(sim.Millisecond), run)
			}
			return fmt.Sprintf("mobility-%s-%d-%d", cfg.Topo, ai, run)
		},
		group: fixedGroup(cfg.GroupSize),
		check: func(ai int) error {
			pt := points[ai]
			return require(pt.Speed >= 0 && pt.Pause >= 0 && cfg.Packets >= 1,
				"speed and pause must be >= 0 and packets >= 1")
		},
		// Speed 0 leaves the Mobility group zero: the static control
		// point runs the shared immutable link table, exactly like the
		// pre-mobility sweeps. Every protocol shares the run seed, so the
		// per-seed motion plan is identical across the rows and they
		// compete on the same drift.
		scenario: func(sc Scenario, row, ai int, _ *rng.RNG) Scenario {
			sc.Protocol = cfg.Protocols[row]
			sc.Traffic = TrafficOptions{
				DataPackets:     cfg.Packets,
				Interval:        cfg.Interval,
				RefreshInterval: cfg.RefreshInterval,
			}
			sc.Faults.ForwarderExpiry = cfg.ForwarderExpiry
			if pt := points[ai]; pt.Speed > 0 {
				sc.Mobility = MobilityOptions{Model: cfg.Model, MaxSpeed: pt.Speed, Pause: pt.Pause}
			}
			return sc
		},
		measure: func(out *Outcome, _ int, v []float64) {
			rb := out.Robustness
			v[MobilityMeanPDR], v[MobilityMinPDR] = rb.MeanPDR, rb.MinPDR
			v[MobilityControlTx] = float64(out.Result.ControlTx)
			v[MobilityRepairs] = float64(rb.Repairs)
		},
	}).run(cfg.Engine)
}
