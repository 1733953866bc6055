package experiment

import (
	"fmt"
	"slices"
	"strings"

	"mtmrp/internal/channel"
	"mtmrp/internal/mobility"
	"mtmrp/internal/sim"
	"mtmrp/internal/stats"
)

// The sweep-kind registry. A SweepSpec's Kind field selects one entry;
// each entry supplies the three hooks the generic spec machinery
// dispatches through — canonicalize (defaults, axis normal form,
// kind-foreign field rejection), split (one sub-spec per axis point) and
// run (drive the kind's sweep and flatten its result into the shared
// cell layout). Everything else — the version frame, key hashing, the
// service's serve path, the fan-out composer — is kind-agnostic: the kind
// string lands inside the canonical JSON, so keys across kinds cannot
// collide and the frame kind stays "sweep" for all of them.

// SweepCells is one protocol's cell matrix in a sweep payload:
// Cells[axisIdx][metric], axis-major so sub-sweep results concatenate
// along the outer dimension. The metric axis is named by the kind's
// Metrics(); the axis points are the kind's canonical axis (sizes,
// fractions or (speed, pause) points) in canonical order.
type SweepCells struct {
	Protocol string            `json:"protocol"`
	Cells    [][]stats.Summary `json:"cells"`
}

// sweepKind is one registry entry. name is the canonical Kind spelling
// ("" for the default group-size kind, so pre-registry specs hash
// unchanged); aliases are accepted spellings that canonicalize to it.
type sweepKind struct {
	name         string
	aliases      []string
	metrics      []string
	canonicalize func(c *SweepSpec) error
	split        func(c SweepSpec) []SweepSpec
	run          func(c SweepSpec, eng EngineOptions) ([]SweepCells, error)
}

// sweepKinds maps every accepted kind spelling to its entry.
var sweepKinds = map[string]*sweepKind{}

// registerSweepKind installs a kind under its name and aliases. Collisions
// are programming errors, caught at init.
func registerSweepKind(k *sweepKind) {
	for _, name := range append([]string{k.name}, k.aliases...) {
		if _, dup := sweepKinds[name]; dup {
			panic(fmt.Sprintf("spec: duplicate sweep kind %q", name))
		}
		sweepKinds[name] = k
	}
}

// sweepKindOf resolves a wire-level kind spelling.
func sweepKindOf(name string) (*sweepKind, error) {
	k, ok := sweepKinds[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrSpecKind, name)
	}
	return k, nil
}

// RunSweepFromSpec executes the sweep a spec describes through its kind's
// run hook, returning one cell matrix per canonical protocol. Like every
// driver, the result is a pure function of the canonical spec:
// bit-identical across worker counts, engine options and fresh vs. pooled
// sessions — the property that lets the service hash the spec into a
// permanent cache address.
func RunSweepFromSpec(s SweepSpec, eng EngineOptions) ([]SweepCells, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	k, err := sweepKindOf(c.Kind)
	if err != nil {
		return nil, err
	}
	return k.run(c, eng)
}

func init() {
	registerSweepKind(&sweepKind{
		name:         "",
		aliases:      []string{"group-size", "group_size", "groupsize"},
		metrics:      figureMetrics,
		canonicalize: canonGroupSizeKind,
		split:        splitGroupSizeKind,
		run:          runGroupSizeKind,
	})
	registerSweepKind(&sweepKind{
		name:         "fault",
		aliases:      []string{"faults"},
		metrics:      faultMetrics,
		canonicalize: canonFaultKind,
		split:        splitFaultKind,
		run:          runFaultKind,
	})
	registerSweepKind(&sweepKind{
		name:         "mobility",
		aliases:      []string{"mobile"},
		metrics:      mobilityMetrics,
		canonicalize: canonMobilityKind,
		split:        splitMobilityKind,
		run:          runMobilityKind,
	})
}

// kindField is one (name, set) pair for kind-foreign field rejection.
type kindField struct {
	name string
	set  bool
}

// rejectForeign errors on the first set field that the kind does not
// define, naming both so the 400 is actionable.
func rejectForeign(kind string, fields ...kindField) error {
	for _, f := range fields {
		if f.set {
			return fmt.Errorf("%w: %q is not a %s-sweep field", ErrSpecKindField, f.name, kind)
		}
	}
	return nil
}

// canonSortedFloats copies, sorts and dedups a float axis.
func canonSortedFloats(vals []float64) []float64 {
	out := slices.Clone(vals)
	slices.Sort(out)
	return slices.Compact(out)
}

// canonAxisShape applies the shared fault/mobility axis-point defaults
// (group 20, 20 packets 50 ms apart, 200 ms refresh, 300 ms expiry) and
// rejects negatives.
func canonAxisShape(c *SweepSpec) error {
	if c.GroupSize < 0 {
		return ErrSpecSizes
	}
	if c.Packets < 0 || c.IntervalMs < 0 || c.RefreshIntervalMs < 0 || c.ForwarderExpiryMs < 0 {
		return ErrSpecTiming
	}
	if c.GroupSize == 0 {
		c.GroupSize = 20
	}
	if c.Packets == 0 {
		c.Packets = 20
	}
	if c.IntervalMs == 0 {
		c.IntervalMs = 50
	}
	if c.RefreshIntervalMs == 0 {
		c.RefreshIntervalMs = 200
	}
	if c.ForwarderExpiryMs == 0 {
		c.ForwarderExpiryMs = 300
	}
	if c.Runs <= 0 {
		c.Runs = 20
	}
	return nil
}

// --- group-size kind (Figures 5/6) ------------------------------------

func canonGroupSizeKind(c *SweepSpec) error {
	if err := rejectForeign("group-size",
		kindField{"group_size", c.GroupSize != 0},
		kindField{"packets", c.Packets != 0},
		kindField{"interval_ms", c.IntervalMs != 0},
		kindField{"refresh_interval_ms", c.RefreshIntervalMs != 0},
		kindField{"forwarder_expiry_ms", c.ForwarderExpiryMs != 0},
		kindField{"fail_fractions", len(c.FailFractions) != 0},
		kindField{"start_ms", c.StartMs != 0},
		kindField{"window_ms", c.WindowMs != 0},
		kindField{"downtime_ms", c.DowntimeMs != 0},
		kindField{"loss", c.Loss},
		kindField{"model", c.Model != ""},
		kindField{"speeds", len(c.Speeds) != 0},
		kindField{"pauses_ms", len(c.PausesMs) != 0},
	); err != nil {
		return err
	}
	if c.Runs <= 0 {
		c.Runs = 100
	}
	if c.N == 0 {
		c.N = 4
	}
	if c.DeltaMs == 0 {
		c.DeltaMs = 1
	}
	if err := checkSpecBackoff(c.N, c.DeltaMs); err != nil {
		return err
	}
	c.Sizes = slices.Clone(c.Sizes)
	if len(c.Sizes) == 0 {
		c.Sizes = PaperSizes()
	}
	slices.Sort(c.Sizes)
	c.Sizes = slices.Compact(c.Sizes)
	if c.Sizes[0] <= 0 {
		return ErrSpecSizes
	}
	return nil
}

func splitGroupSizeKind(c SweepSpec) []SweepSpec {
	out := make([]SweepSpec, len(c.Sizes))
	for i, size := range c.Sizes {
		sub := c
		sub.Sizes = []int{size}
		out[i] = sub
	}
	return out
}

func runGroupSizeKind(c SweepSpec, eng EngineOptions) ([]SweepCells, error) {
	cfg, err := c.SweepConfig()
	if err != nil {
		return nil, err
	}
	cfg.Engine = eng
	res, err := GroupSizeSweep(cfg)
	if err != nil {
		return nil, err
	}
	return specCells(cfg.Protocols, &res.Table), nil
}

// specCells passes a protocol comparison's table rows through as payload
// cells, named by the protocols' wire spellings.
func specCells(protos []Protocol, t *Table) []SweepCells {
	out := make([]SweepCells, len(protos))
	for i, p := range protos {
		out[i] = SweepCells{Protocol: protocolSpecName(p), Cells: t.Cells[i]}
	}
	return out
}

// --- fault kind (robustness study) -------------------------------------

func canonFaultKind(c *SweepSpec) error {
	if err := rejectForeign("fault",
		kindField{"sizes", len(c.Sizes) != 0},
		kindField{"n", c.N != 0},
		kindField{"delta_ms", c.DeltaMs != 0},
		kindField{"model", c.Model != ""},
		kindField{"speeds", len(c.Speeds) != 0},
		kindField{"pauses_ms", len(c.PausesMs) != 0},
	); err != nil {
		return err
	}
	if err := canonAxisShape(c); err != nil {
		return err
	}
	if c.StartMs < 0 || c.WindowMs < 0 || c.DowntimeMs < 0 {
		return ErrSpecTiming
	}
	if c.StartMs == 0 {
		c.StartMs = 1200
	}
	if c.WindowMs == 0 {
		c.WindowMs = 800
	}
	c.FailFractions = canonSortedFloats(c.FailFractions)
	if len(c.FailFractions) == 0 {
		c.FailFractions = []float64{0, 0.05, 0.1, 0.2, 0.3}
	}
	if c.FailFractions[0] < 0 || c.FailFractions[len(c.FailFractions)-1] > 1 {
		return ErrSpecFractions
	}
	return nil
}

func splitFaultKind(c SweepSpec) []SweepSpec {
	out := make([]SweepSpec, len(c.FailFractions))
	for i, frac := range c.FailFractions {
		sub := c
		sub.FailFractions = []float64{frac}
		out[i] = sub
	}
	return out
}

func runFaultKind(c SweepSpec, eng EngineOptions) ([]SweepCells, error) {
	protos, err := parseProtocolSet(c.Protocols)
	if err != nil {
		return nil, err
	}
	cfg := FaultConfig{
		Topo:            topoKindOf(c.Topo),
		GroupSize:       c.GroupSize,
		FailFractions:   c.FailFractions,
		Runs:            c.Runs,
		Seed:            c.Seed,
		Protocols:       protos,
		Packets:         c.Packets,
		Interval:        msToTime(c.IntervalMs),
		RefreshInterval: msToTime(c.RefreshIntervalMs),
		ForwarderExpiry: msToTime(c.ForwarderExpiryMs),
		FaultStart:      msToTime(c.StartMs),
		FaultWindow:     msToTime(c.WindowMs),
		Downtime:        msToTime(c.DowntimeMs),
		ValueLabels:     true,
		Engine:          eng,
	}
	if c.Loss {
		loss := channel.DefaultLossConfig()
		cfg.Loss = &loss
	}
	res, err := FaultSweep(cfg)
	if err != nil {
		return nil, err
	}
	return specCells(protos, &res.Table), nil
}

// --- mobility kind ------------------------------------------------------

func canonMobilityKind(c *SweepSpec) error {
	if err := rejectForeign("mobility",
		kindField{"sizes", len(c.Sizes) != 0},
		kindField{"n", c.N != 0},
		kindField{"delta_ms", c.DeltaMs != 0},
		kindField{"fail_fractions", len(c.FailFractions) != 0},
		kindField{"start_ms", c.StartMs != 0},
		kindField{"window_ms", c.WindowMs != 0},
		kindField{"downtime_ms", c.DowntimeMs != 0},
		kindField{"loss", c.Loss},
	); err != nil {
		return err
	}
	if err := canonAxisShape(c); err != nil {
		return err
	}
	switch strings.ToLower(strings.TrimSpace(c.Model)) {
	case "", "waypoint", "random-waypoint", "rwp":
		c.Model = "waypoint"
	case "rpgm":
		c.Model = "rpgm"
	default:
		return fmt.Errorf("%w %q", ErrSpecModel, c.Model)
	}
	c.Speeds = canonSortedFloats(c.Speeds)
	if len(c.Speeds) == 0 {
		c.Speeds = []float64{0, 5, 10, 20}
	}
	if c.Speeds[0] < 0 {
		return ErrSpecSpeeds
	}
	c.PausesMs = canonSortedFloats(c.PausesMs)
	if len(c.PausesMs) == 0 {
		c.PausesMs = []float64{0, 500}
	}
	if c.PausesMs[0] < 0 {
		return ErrSpecTiming
	}
	return nil
}

// splitMobilityKind emits one sub-spec per (speed, pause) point,
// speed-major — exactly MobilityConfig.Points' expansion order, so the
// composed cell rows line up with the full sweep's axis.
func splitMobilityKind(c SweepSpec) []SweepSpec {
	out := make([]SweepSpec, 0, len(c.Speeds)*len(c.PausesMs))
	for _, speed := range c.Speeds {
		for _, pause := range c.PausesMs {
			sub := c
			sub.Speeds = []float64{speed}
			sub.PausesMs = []float64{pause}
			out = append(out, sub)
		}
	}
	return out
}

func runMobilityKind(c SweepSpec, eng EngineOptions) ([]SweepCells, error) {
	protos, err := parseProtocolSet(c.Protocols)
	if err != nil {
		return nil, err
	}
	model := mobility.RandomWaypoint
	if c.Model == "rpgm" {
		model = mobility.RPGM
	}
	pauses := make([]sim.Time, len(c.PausesMs))
	for i, ms := range c.PausesMs {
		pauses[i] = msToTime(ms)
	}
	cfg := MobilityConfig{
		Topo:            topoKindOf(c.Topo),
		GroupSize:       c.GroupSize,
		Speeds:          c.Speeds,
		Pauses:          pauses,
		Runs:            c.Runs,
		Seed:            c.Seed,
		Protocols:       protos,
		Model:           model,
		Packets:         c.Packets,
		Interval:        msToTime(c.IntervalMs),
		RefreshInterval: msToTime(c.RefreshIntervalMs),
		ForwarderExpiry: msToTime(c.ForwarderExpiryMs),
		ValueLabels:     true,
		Engine:          eng,
	}
	res, err := MobilitySweep(cfg)
	if err != nil {
		return nil, err
	}
	return specCells(protos, &res.Table), nil
}

// topoKindOf maps the canonical topo string to the driver enum.
func topoKindOf(topo string) TopoKind {
	if topo == "random" {
		return RandomTopo
	}
	return GridTopo
}
