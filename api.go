package mtmrp

import (
	"os"

	"mtmrp/internal/centralized"
	"mtmrp/internal/channel"
	"mtmrp/internal/experiment"
	"mtmrp/internal/experiment/sweep"
	"mtmrp/internal/fault"
	"mtmrp/internal/geom"
	"mtmrp/internal/graph"
	"mtmrp/internal/metrics"
	"mtmrp/internal/mobility"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/stats"
	"mtmrp/internal/topology"
	"mtmrp/internal/trace"
)

// Protocol selects the routing protocol under test.
type Protocol = experiment.Protocol

// The distributed protocols of the paper's evaluation (Figures 5–10) plus
// the flooding strawman from its introduction.
const (
	MTMRP      = experiment.MTMRP
	MTMRPNoPHS = experiment.MTMRPNoPHS
	DODMRP     = experiment.DODMRP
	ODMRP      = experiment.ODMRP
	Flooding   = experiment.Flooding
	GMR        = experiment.GMR
)

// AllProtocols lists the four protocols of Figures 5–8 in legend order.
var AllProtocols = experiment.AllProtocols

// Core simulation types, re-exported from the internal implementation.
type (
	// Scenario describes one simulated multicast session.
	Scenario = experiment.Scenario
	// Outcome bundles a session's metrics with its network state.
	Outcome = experiment.Outcome
	// Result carries the paper's evaluation metrics for one session.
	Result = metrics.Result
	// Topology is an immutable node deployment with its connectivity.
	Topology = topology.Topology
	// Summary is a Monte-Carlo statistic (mean, CI95, min/max).
	Summary = stats.Summary
	// Duration is virtual time in nanoseconds.
	Duration = sim.Time
	// Snapshot renders a field view in the style of Figures 9–10.
	Snapshot = trace.Snapshot
	// Tree is a centralized multicast-tree construction result.
	Tree = centralized.Tree
	// LinkTable is a precomputed, immutable propagation table for one
	// topology; build it once with NewLinkTable and set Scenario.Links to
	// share it across runs on the same deployment.
	LinkTable = channel.LinkTable
)

// Virtual-time units for Scenario.Delta and friends.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Grouped Scenario options.
type (
	// RadioOptions groups the PHY/MAC knobs of a Scenario.
	RadioOptions = experiment.RadioOptions
	// TrafficOptions groups the traffic-shape knobs: payload, packet count,
	// discovery rounds, pacing interval and in-traffic route refresh.
	TrafficOptions = experiment.TrafficOptions
	// FaultOptions groups the fault-injection knobs: a crash/degrade
	// schedule, a channel loss model and the forwarder soft-state expiry.
	FaultOptions = experiment.FaultOptions
	// MobilityOptions groups the node-motion knobs: model, speed bounds,
	// pause, tick step and an optional recorded trace. The zero value is
	// the paper's static field.
	MobilityOptions = experiment.MobilityOptions
	// DataReport is Session.RunData's per-call outcome: packets actually
	// sent and, per packet, how many receivers a first copy reached.
	DataReport = experiment.DataReport
	// Robustness carries the fault-tolerance metrics of one session:
	// per-receiver packet delivery ratios, closed delivery gaps (repairs)
	// and the mean time to repair.
	Robustness = metrics.Robustness
)

// SimStats reports the scheduler's throughput counters for a session
// (Session.Stats): events processed (elided ones included) and executed,
// peak queue depth, wall time inside the event loop and executed events
// per second.
type SimStats = sim.Stats

// Fault-injection layer: deterministic node crashes, link degradation and
// bursty channel loss, injected as ordinary simulator events (see
// Scenario.Faults and the FaultSweep driver).
type (
	// FaultSchedule is an ordered list of fault events for one run.
	FaultSchedule = fault.Schedule
	// FaultEvent is one scheduled fault: node, kind, virtual time.
	FaultEvent = fault.Event
	// FaultKind is the fault event type (crash, recover, degrade, restore).
	FaultKind = fault.Kind
	// FaultPlan parameterises PlanFaults' random schedule generator.
	FaultPlan = fault.PlanConfig
	// LossModel is a Gilbert–Elliott bursty channel loss model; zero value
	// drops nothing, DefaultLossModel returns the calibrated defaults.
	LossModel = channel.LossConfig
)

// Fault event kinds for FaultEvent.Kind.
const (
	NodeCrash   = fault.NodeCrash
	NodeRecover = fault.NodeRecover
	LinkDegrade = fault.LinkDegrade
	LinkRestore = fault.LinkRestore
)

// PlanFaults draws a random fault schedule from a dedicated seed: each
// unprotected node faults with probability cfg.FailFraction at a uniform
// time in [Start, Start+Window). The schedule is a pure function of
// (cfg, seed).
func PlanFaults(cfg FaultPlan, seed uint64) FaultSchedule {
	return fault.Plan(cfg, rng.New(seed))
}

// DefaultLossModel returns the calibrated Gilbert–Elliott parameters: a
// mean burst length of four frames, lossless good state, total loss in
// the bad state, and a 50% drop rate on degraded links.
func DefaultLossModel() LossModel { return channel.DefaultLossConfig() }

// Mobility layer: deterministic node motion executed as ordinary simulator
// events over an incrementally-updated link table (see Scenario.Mobility
// and the MobilitySweep driver).
type (
	// MobilityModel selects the motion model (random waypoint or RPGM).
	MobilityModel = mobility.Model
	// MotionPlan is a drawn (or loaded) piecewise-linear motion of every
	// node — inert, replayable data; set MobilityOptions.Trace to replay
	// one, or use cmd/topogen -motion to record one.
	MotionPlan = mobility.Plan
)

// Motion models for MobilityOptions.Model.
const (
	MobilityNone           = mobility.None
	MobilityRandomWaypoint = mobility.RandomWaypoint
	MobilityRPGM           = mobility.RPGM
)

// LoadMotion reads a motion trace saved by cmd/topogen -motion for
// MobilityOptions.Trace.
func LoadMotion(path string) (*MotionPlan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mobility.Load(f)
}

// Run executes one complete multicast session: HELLO phase, JoinQuery
// flood, JoinReply tree construction, one data packet down the tree.
func Run(sc Scenario) (*Outcome, error) { return experiment.Run(sc) }

// NewLinkTable precomputes the channel link table for a topology under the
// default radio parameters. Sharing one table across the sessions that run
// on the same topology skips the per-run link computation; the simulated
// behaviour is identical either way.
func NewLinkTable(t *Topology) *LinkTable { return experiment.LinkTableFor(t) }

// Session exposes the phases of a multicast session individually:
// NewSession -> RunHello -> RunDiscovery -> RunData -> Metrics. Run is the
// one-shot equivalent.
type Session = experiment.Session

// NewSession validates a scenario and builds its network without running
// anything yet.
func NewSession(sc Scenario) (*Session, error) { return experiment.NewSession(sc) }

// ErrNoDiscovery is returned by Session.RunData before any discovery round.
var ErrNoDiscovery = experiment.ErrNoDiscovery

// ErrSessionShape is returned by Session.Reset onto a scenario of another
// shape (protocol, MAC, channel settings, topology size, Core, tracing).
var ErrSessionShape = experiment.ErrSessionShape

// SessionPool reuses fully-built sessions across runs that share a shape
// (same topology size and radio, protocol, MAC and channel settings),
// resetting them in place instead of rebuilding — in the steady state a
// Monte-Carlo loop allocates (almost) nothing. Results are bit-identical
// to fresh runs; the pool is purely a performance cache. A pool serves one
// goroutine; the sweep drivers below create one per worker automatically.
type SessionPool = experiment.SessionPool

// NewSessionPool returns an empty session pool.
func NewSessionPool() *SessionPool { return experiment.NewSessionPool() }

// Sweep engine types: every Monte-Carlo driver below runs on a shared
// deterministic worker pool, configured through EngineOptions.
type (
	// EngineOptions selects worker count, cancellation context and
	// progress callback for a sweep.
	EngineOptions = experiment.EngineOptions
	// SweepStats reports wall-clock and per-run statistics for a sweep.
	SweepStats = sweep.Stats
	// Progress is one progress-callback observation (done/total, ETA).
	Progress = sweep.Progress
	// Table is the one result shape every sweep returns: a Summary
	// per (row, axis point, metric) in Cells[row][axis][metric], with the
	// row names (protocols or ablation variants), axis tick labels and
	// metric names alongside, plus the engine's SweepStats. Cell reads
	// one summary by row name, axis index and metric name.
	Table = experiment.Table
)

// PartialOK reports whether a sweep error still left a usable partial
// result (cancellation or timeout). A failing run cancels the sweep and
// leaves none.
func PartialOK(err error) bool { return sweep.PartialOK(err) }

// Grid returns the paper's 10x10 grid deployment (200x200 m, 40 m range).
func Grid() *Topology { return topology.PaperGrid() }

// RandomTopology returns a connected uniform-random deployment of n nodes
// in a side x side field with the given transmission range, source pinned
// at the origin.
func RandomTopology(n int, side, txRange float64, seed uint64) (*Topology, error) {
	return topology.RandomConnected(n, side, txRange, rng.New(seed), 100)
}

// ScaledField returns the field edge length that keeps the paper's node
// density for n nodes — the deployment scaling used by the 10k–100k-node
// scale runs (see cmd/topogen -side 0).
func ScaledField(n int) float64 { return topology.ScaledField(n) }

// PaperRandomTopology returns the paper's random deployment: 200 nodes,
// 200x200 m, 40 m range.
func PaperRandomTopology(seed uint64) (*Topology, error) {
	return topology.PaperRandom(rng.New(seed))
}

// Point is a node position in meters.
type Point = geom.Point

// CustomTopology builds a deployment from explicit node positions.
func CustomTopology(points []Point, side, txRange float64) (*Topology, error) {
	return topology.FromPositions(points, side, txRange)
}

// LoadTopology reads a deployment saved by Topology.Save (or cmd/topogen).
func LoadTopology(path string) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return topology.Load(f)
}

// PickReceivers draws k distinct multicast receivers reachable from
// source, uniformly at random.
func PickReceivers(t *Topology, source, k int, seed uint64) ([]int, error) {
	return t.PickReceivers(source, k, rng.New(seed))
}

// Sweep types and drivers for reproducing the figures.
type (
	// SweepConfig parameterises a group-size sweep (Figures 5–6).
	SweepConfig = experiment.SweepConfig
	// TuningConfig parameterises the N x delta sweep (Figures 7–8).
	TuningConfig = experiment.TuningConfig
	// Metric indexes the evaluation metrics of Figures 5–6.
	Metric = experiment.Metric
	// TopoKind selects the evaluation topology family.
	TopoKind = experiment.TopoKind
)

// Topology families of the paper's evaluation.
const (
	GridTopo   = experiment.GridTopo
	RandomTopo = experiment.RandomTopo
)

// Metrics of Figures 5–6.
const (
	MetricOverhead    = experiment.MetricOverhead
	MetricExtraNodes  = experiment.MetricExtraNodes
	MetricRelayProfit = experiment.MetricRelayProfit
	MetricDelivery    = experiment.MetricDelivery
)

// GroupSizeSweep runs the Monte-Carlo study behind Figure 5 (grid) or
// Figure 6 (random topology): one row per protocol, one axis point per
// group size, the metrics of Figures 5–6.
func GroupSizeSweep(cfg SweepConfig) (*Table, error) {
	return experiment.GroupSizeSweep(cfg)
}

// TuningSweep runs the N x delta parameter study behind Figures 7–8; the
// table's axis is the (N, delta) grid, N-major, and its one metric the
// overhead.
func TuningSweep(cfg TuningConfig) (*Table, error) {
	return experiment.TuningSweep(cfg)
}

// ParseProtocol resolves a protocol name: the wire name ("mtmrp",
// "mtmrp-nophs", "dodmrp", "odmrp", "flooding", "gmr"), the legend String
// prints, or an alias ("nophs", "flood", "geographic"), in any case.
func ParseProtocol(name string) (Protocol, error) { return experiment.ParseProtocol(name) }

// ParseTopoKind resolves a topology-kind name ("grid" or "random", in any
// case; "" is the grid).
func ParseTopoKind(name string) (TopoKind, error) { return experiment.ParseTopoKind(name) }

// Content-addressed service specs (cmd/mtmrd): wire-level JSON descriptions
// of a sweep or single session whose canonical form hashes to a cache key.
// Determinism makes equal keys certify byte-identical results.
type (
	// SweepSpec is the wire form of a group-size sweep; Key() is its
	// content address.
	SweepSpec = experiment.SweepSpec
	// RunSpec is the wire form of one session; Key() is its content
	// address.
	RunSpec = experiment.RunSpec
	// RunTopoSpec describes a RunSpec's deployment ("grid" or "random").
	RunTopoSpec = experiment.TopoSpec
)

// Version triple folded into every cache key: bumping any constituent
// orphans stale cached results on purpose.
const (
	// SpecVersion versions the canonical spec encoding.
	SpecVersion = experiment.SpecVersion
	// ResultSchemaVersion versions the frozen Result schema.
	ResultSchemaVersion = experiment.ResultSchemaVersion
	// CodeVersion names the simulated behaviour (bumped when golden
	// tables are regenerated).
	CodeVersion = experiment.CodeVersion
)

// RunFromSpec executes the session a RunSpec describes, optionally through
// a SessionPool (bit-identical either way).
func RunFromSpec(s RunSpec, pool *SessionPool) (*Outcome, error) {
	return experiment.RunFromSpec(s, pool)
}

// Ablation study types: the per-mechanism breakdown of MTMRP's savings
// (beyond the paper, which only ablates PHS).
type (
	// AblationConfig parameterises the mechanism ablation study.
	AblationConfig = experiment.AblationConfig
)

// AblationSweep measures each MTMRP mechanism's contribution: one row per
// variant, one axis point (the group size), the metrics of Figures 5–6.
func AblationSweep(cfg AblationConfig) (*Table, error) {
	return experiment.AblationSweep(cfg)
}

// Amortization study types: per-packet cost as the constructed tree is
// reused for more data packets (§V.B.3's trade-off discussion).
type (
	// AmortizeConfig parameterises the amortization study.
	AmortizeConfig = experiment.AmortizeConfig
)

// AmortizeSweep measures total frames per delivered data packet as the
// session length grows.
func AmortizeSweep(cfg AmortizeConfig) (*Table, error) {
	return experiment.AmortizeSweep(cfg)
}

// Shadowing robustness study types: the Figure 5 comparison re-run under
// log-normal fading (which the paper's evaluation disables).
type (
	// ShadowingConfig parameterises the robustness study.
	ShadowingConfig = experiment.ShadowingConfig
)

// ShadowingSweep runs the fading robustness study.
func ShadowingSweep(cfg ShadowingConfig) (*Table, error) {
	return experiment.ShadowingSweep(cfg)
}

// Fault robustness study types: packet delivery ratio and tree-repair
// behaviour as a function of the per-node failure rate.
type (
	// FaultConfig parameterises the fault-robustness sweep.
	FaultConfig = experiment.FaultConfig
	// FaultMetric indexes the robustness metrics of a fault sweep.
	FaultMetric = experiment.FaultMetric
)

// Metrics of the fault-robustness sweep.
const (
	FaultMeanPDR  = experiment.FaultMeanPDR
	FaultMinPDR   = experiment.FaultMinPDR
	FaultRepairs  = experiment.FaultRepairs
	FaultRepairMs = experiment.FaultRepairMs
)

// FaultSweep runs the PDR-vs-node-failure-rate study: per round it draws a
// crash schedule (protecting the source), paces data packets through the
// disaster and measures how the protocols' soft state repairs the tree.
func FaultSweep(cfg FaultConfig) (*Table, error) {
	return experiment.FaultSweep(cfg)
}

// Mobility study types: delivery and control overhead as a function of
// node speed and pause time.
type (
	// MobilityConfig parameterises the mobility sweep.
	MobilityConfig = experiment.MobilityConfig
	// MobilityMetric indexes the metrics of a mobility sweep.
	MobilityMetric = experiment.MobilityMetric
	// MobilityPoint is one x-axis point: (max speed, pause).
	MobilityPoint = experiment.MobilityPoint
)

// Metrics of the mobility sweep.
const (
	MobilityMeanPDR   = experiment.MobilityMeanPDR
	MobilityMinPDR    = experiment.MobilityMinPDR
	MobilityControlTx = experiment.MobilityControlTx
	MobilityRepairs   = experiment.MobilityRepairs
)

// MobilitySweep runs the PDR-and-overhead-vs-speed study: per round it
// draws a topology and receiver group, then runs every protocol over the
// identical per-seed motion plan while data packets pace through the
// drifting field.
func MobilitySweep(cfg MobilityConfig) (*Table, error) {
	return experiment.MobilitySweep(cfg)
}

// SnapshotRun reproduces one panel of Figures 9–10: a single session whose
// forwarder set is rendered as an ASCII field view.
func SnapshotRun(kind TopoKind, groupSize int, p Protocol, seed uint64) (*Snapshot, *Outcome, error) {
	return experiment.SnapshotRun(kind, groupSize, p, seed)
}

// Centralized tree constructions (§IV.A / Fig. 1 comparators).

// SPTTree builds the shortest-path multicast tree over a topology.
func SPTTree(t *Topology, source int, receivers []int) (*Tree, error) {
	return centralized.SPT(topoGraph(t), source, receivers)
}

// SteinerTree builds the KMB Steiner-tree approximation.
func SteinerTree(t *Topology, source int, receivers []int) (*Tree, error) {
	return centralized.Steiner(topoGraph(t), source, receivers)
}

// NodeJoinTreeTree builds Jia et al.'s Node-Join-Tree heuristic (cheapest
// insertion), one of the centralized comparators the paper cites.
func NodeJoinTreeTree(t *Topology, source int, receivers []int) (*Tree, error) {
	return centralized.NodeJoinTree(topoGraph(t), source, receivers)
}

// TreeJoinTreeTree builds Jia et al.'s Tree-Join-Tree heuristic
// (Kruskal-style merging).
func TreeJoinTreeTree(t *Topology, source int, receivers []int) (*Tree, error) {
	return centralized.TreeJoinTree(topoGraph(t), source, receivers)
}

// MinTransmissionTree builds the greedy minimum-transmission tree that
// exploits the wireless broadcast advantage (Fig. 1(c)).
func MinTransmissionTree(t *Topology, source int, receivers []int) (*Tree, error) {
	return centralized.MinTransmission(topoGraph(t), source, receivers)
}

func topoGraph(t *Topology) *graph.Graph {
	adj := make([][]int, t.N())
	for i := range adj {
		adj[i] = t.Neighbors(i)
	}
	return graph.FromAdjacency(adj)
}

// NewSnapshot builds a field snapshot from explicit node sets.
func NewSnapshot(t *Topology, source int, receivers, forwarders []int) *Snapshot {
	return trace.NewSnapshot(t.Side, t.Positions, source, receivers, forwarders)
}
