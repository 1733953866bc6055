package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"mtmrp/internal/channel"
	"mtmrp/internal/fault"
	"mtmrp/internal/mobility"
	"mtmrp/internal/network"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

// This file defines the wire-level, content-addressable request specs the
// sweep service (internal/service, cmd/mtmrd) serves. A spec is plain JSON
// describing a sweep or a single session; Canonical() reduces every
// equivalent spelling — permuted size/protocol sets, omitted defaults vs.
// explicit ones — to one normal form, and Key() hashes that form together
// with the spec, Result and code versions. Because every run is a pure
// function of its spec (bit-identical across worker counts and fresh vs.
// pooled sessions), two specs with equal keys have byte-identical results,
// so the key is safe to use as a cache address forever.

// Spec/versioning constants folded into every cache key. Bumping any of
// them orphans the old keys on purpose: cached results no longer describe
// what the code would compute.
const (
	// SpecVersion versions the canonical spec encoding itself (field set,
	// normalization rules). Bump on any change to Canonical() or to the
	// canonical JSON layout.
	SpecVersion = 1
	// ResultSchemaVersion versions the frozen metrics.Result schema the
	// payloads embed. The schema has been frozen since the golden tests
	// pinned it; bump only when Result gains/changes fields.
	ResultSchemaVersion = 1
	// CodeVersion names the simulated behaviour. It must change whenever a
	// code change alters any run's observable results — in practice,
	// whenever golden tables are regenerated (last: PR 8's re-freeze).
	CodeVersion = "pr8"
)

// Spec validation errors.
var (
	ErrSpecTopo      = errors.New("spec: unknown topology kind (want \"grid\" or \"random\")")
	ErrSpecProtocol  = errors.New("spec: unknown protocol")
	ErrSpecSizes     = errors.New("spec: group sizes must be positive")
	ErrSpecNodes     = errors.New("spec: random topology needs at least 2 nodes")
	ErrSpecKind      = errors.New("spec: unknown sweep kind")
	ErrSpecKindField = errors.New("spec: field not valid for this sweep kind")
	ErrSpecFractions = errors.New("spec: fail fractions must be within [0, 1]")
	ErrSpecSpeeds    = errors.New("spec: speeds must be non-negative")
	ErrSpecTiming    = errors.New("spec: timing and count fields must be non-negative")
	ErrSpecModel     = errors.New("spec: unknown mobility model")
	ErrSpecBackoff   = errors.New("spec: backoff parameters need n >= 1 and delta_ms > 0")
)

// ParseProtocol resolves a wire-level protocol name. Accepted spellings
// are the canonical lower-case names plus the figure-legend strings the
// String methods print.
func ParseProtocol(name string) (Protocol, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "mtmrp":
		return MTMRP, nil
	case "mtmrp-nophs", "mtmrp w/o phs", "mtmrpnophs":
		return MTMRPNoPHS, nil
	case "dodmrp":
		return DODMRP, nil
	case "odmrp":
		return ODMRP, nil
	case "flooding":
		return Flooding, nil
	case "gmr":
		return GMR, nil
	}
	return 0, fmt.Errorf("%w: %q", ErrSpecProtocol, name)
}

// protocolSpecName is the canonical wire spelling of a protocol (the form
// ParseProtocol round-trips and the one that lands in cache keys).
func protocolSpecName(p Protocol) string {
	switch p {
	case MTMRP:
		return "mtmrp"
	case MTMRPNoPHS:
		return "mtmrp-nophs"
	case DODMRP:
		return "dodmrp"
	case ODMRP:
		return "odmrp"
	case Flooding:
		return "flooding"
	case GMR:
		return "gmr"
	default:
		return fmt.Sprintf("protocol-%d", uint8(p))
	}
}

// keyOf frames a canonical spec encoding with the version triple and the
// spec kind, and hashes the whole frame. The frame fields are length-free
// but '|'-separated and the canonical JSON cannot contain a bare '|' in a
// position that would collide across kinds, so the mapping is injective.
func keyOf(kind string, canonical []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "mtmrd|spec=%d|result=%d|code=%s|%s|", SpecVersion, ResultSchemaVersion, CodeVersion, kind)
	h.Write(canonical)
	return hex.EncodeToString(h.Sum(nil))
}

// SweepSpec is the wire form of a Monte-Carlo sweep, addressed by content.
// Kind selects the sweep family (the registry in spec_kinds.go): the
// default group-size sweep of Figures 5/6, the fault-robustness sweep or
// the mobility sweep. Zero fields take each kind's paper defaults — for
// group-size: sizes 5..60 step 5, 100 runs, the four comparison protocols,
// N=4, δ=1 ms. Fields beyond the kind's own axis set must stay zero;
// Canonical rejects kind-foreign fields rather than silently hashing them.
type SweepSpec struct {
	// Kind is the sweep family: "" or "group-size" (Figures 5/6),
	// "fault" or "mobility". Canonical keeps the group-size kind spelled
	// "" so every pre-registry spec hashes to its original key.
	Kind string `json:"kind,omitempty"`
	// Topo is the topology family: "grid" (Fig. 5) or "random" (Fig. 6).
	Topo string `json:"topo"`
	// Sizes are the multicast group sizes swept (group-size kind only).
	// Order and duplicates do not matter: per-cell results depend only on
	// (size, run) — the sweep labels its rounds that way — so Canonical
	// sorts and dedups.
	Sizes []int `json:"sizes,omitempty"`
	// Runs is the Monte-Carlo round count per axis point.
	Runs int `json:"runs,omitempty"`
	// Seed is the sweep's root seed.
	Seed uint64 `json:"seed,omitempty"`
	// Protocols names the protocols compared (see ParseProtocol). Order
	// and duplicates do not matter: within a round every protocol draws
	// its randomness from its own derived stream, so per-protocol cells
	// are independent of the protocol set; Canonical sorts and dedups.
	Protocols []string `json:"protocols,omitempty"`
	// N and DeltaMs are the biased-backoff parameters (group-size kind).
	N       int     `json:"n,omitempty"`
	DeltaMs float64 `json:"delta_ms,omitempty"`

	// Axis-point shape shared by the fault and mobility kinds (defaults:
	// group 20, 20 packets 50 ms apart, 200 ms refresh, 300 ms expiry).
	GroupSize         int     `json:"group_size,omitempty"`
	Packets           int     `json:"packets,omitempty"`
	IntervalMs        float64 `json:"interval_ms,omitempty"`
	RefreshIntervalMs float64 `json:"refresh_interval_ms,omitempty"`
	ForwarderExpiryMs float64 `json:"forwarder_expiry_ms,omitempty"`

	// Fault kind: the crash-probability axis and the plan window (defaults
	// fractions {0,.05,.1,.2,.3}, onset 1200 ms over an 800 ms window,
	// permanent crashes, no ambient loss).
	FailFractions []float64 `json:"fail_fractions,omitempty"`
	StartMs       float64   `json:"start_ms,omitempty"`
	WindowMs      float64   `json:"window_ms,omitempty"`
	DowntimeMs    float64   `json:"downtime_ms,omitempty"`
	Loss          bool      `json:"loss,omitempty"`

	// Mobility kind: the (speed, pause) grid and motion model (defaults
	// waypoint, speeds {0,5,10,20} m/s, pauses {0,500} ms).
	Model    string    `json:"model,omitempty"`
	Speeds   []float64 `json:"speeds,omitempty"`
	PausesMs []float64 `json:"pauses_ms,omitempty"`
}

// Canonical returns the spec's normal form: the kind resolved, defaults
// applied, axes sorted and deduped, protocols resolved to canonical names,
// sorted in enum order and deduped, kind-foreign fields rejected. Two
// specs describing the same sweep canonicalize identically, which is what
// makes Key a content address rather than a spelling address.
func (s SweepSpec) Canonical() (SweepSpec, error) {
	k, err := sweepKindOf(s.Kind)
	if err != nil {
		return s, err
	}
	c := s
	c.Kind = k.name
	c.Topo = strings.ToLower(strings.TrimSpace(s.Topo))
	if c.Topo == "" {
		c.Topo = "grid"
	}
	if c.Topo != "grid" && c.Topo != "random" {
		return c, fmt.Errorf("%w: %q", ErrSpecTopo, s.Topo)
	}
	protos, err := parseProtocolSet(s.Protocols)
	if err != nil {
		return c, err
	}
	c.Protocols = make([]string, len(protos))
	for i, p := range protos {
		c.Protocols[i] = protocolSpecName(p)
	}
	if err := k.canonicalize(&c); err != nil {
		return c, err
	}
	return c, nil
}

// Metrics returns the kind's metric names, index-aligned with the metric
// axis of the cell vectors the kind's run hook emits.
func (s SweepSpec) Metrics() ([]string, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	k, err := sweepKindOf(c.Kind)
	if err != nil {
		return nil, err
	}
	return append([]string(nil), k.metrics...), nil
}

// Key canonicalizes the spec and returns its content address. Equal keys
// guarantee byte-identical results (determinism + the versioning frame).
func (s SweepSpec) Key() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	enc, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	return keyOf("sweep", enc), nil
}

// SweepConfig converts a canonical group-size spec into the GroupSizeSweep
// driver configuration (engine knobs are the caller's: workers, context,
// progress are performance/operational concerns outside the content
// address). Other kinds run through RunSweepFromSpec, which dispatches to
// their own drivers.
func (s SweepSpec) SweepConfig() (SweepConfig, error) {
	c, err := s.Canonical()
	if err != nil {
		return SweepConfig{}, err
	}
	if c.Kind != "" {
		return SweepConfig{}, fmt.Errorf("spec: SweepConfig is only defined for the group-size kind (got %q)", c.Kind)
	}
	protos, err := parseProtocolSet(c.Protocols)
	if err != nil {
		return SweepConfig{}, err
	}
	return SweepConfig{
		Topo: topoKindOf(c.Topo), Sizes: c.Sizes, Runs: c.Runs, Seed: c.Seed,
		Protocols: protos, N: c.N, Delta: msToTime(c.DeltaMs),
	}, nil
}

// Split partitions a sweep into one sub-sweep per axis point: per group
// size (group-size kind), per fail fraction (fault kind) or per
// (speed, pause) point (mobility kind). Every kind labels its rounds as a
// pure function of (axis value, run), independent of the axis set, so each
// sub-sweep computes exactly the cells the full sweep would, bit for bit
// (TestSweepSplitComposes and the kind variants pin this). Sub-sweeps hash
// to their own keys, which is the shardable job-ID scheme: a fan-out
// front-end routes the sub-specs to the instances owning their key ranges
// and composes the cells (service.ComposeSweep).
func (s SweepSpec) Split() ([]SweepSpec, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	k, err := sweepKindOf(c.Kind)
	if err != nil {
		return nil, err
	}
	return k.split(c), nil
}

// TopoSpec describes the deployment of a RunSpec. Kind "grid" is the
// paper's fixed 10x10 grid (the other fields must be zero after
// canonicalization — the grid is fully deterministic); "random" draws a
// connected uniform deployment of Nodes nodes from Seed, defaulting to the
// paper's 200-node field and scaling the side to keep the paper's density
// when only Nodes is given.
type TopoSpec struct {
	Kind  string  `json:"kind"`
	Nodes int     `json:"nodes,omitempty"`
	Side  float64 `json:"side,omitempty"`
	Range float64 `json:"range,omitempty"`
	Seed  uint64  `json:"seed,omitempty"`
}

// RadioSpec is the wire form of RadioOptions. MAC is "csma" or "ideal".
type RadioSpec struct {
	MAC               string  `json:"mac,omitempty"`
	DisableCollisions bool    `json:"disable_collisions,omitempty"`
	ShadowingSigmaDB  float64 `json:"shadowing_sigma_db,omitempty"`
}

// TrafficSpec is the wire form of TrafficOptions (times in milliseconds).
type TrafficSpec struct {
	PayloadLen        int     `json:"payload_len,omitempty"`
	DataPackets       int     `json:"data_packets,omitempty"`
	DiscoveryRounds   int     `json:"discovery_rounds,omitempty"`
	IntervalMs        float64 `json:"interval_ms,omitempty"`
	RefreshIntervalMs float64 `json:"refresh_interval_ms,omitempty"`
}

// FaultsSpec is the wire form of the fault-injection knobs. Instead of an
// explicit schedule (too bulky and too easy to spell two ways), the spec
// carries the FaultSweep plan parameters; the schedule is drawn from the
// run's "faults" substream, protecting the source — a pure function of
// (spec, seed), exactly like the sweep driver.
type FaultsSpec struct {
	FailFraction      float64 `json:"fail_fraction,omitempty"`
	StartMs           float64 `json:"start_ms,omitempty"`
	WindowMs          float64 `json:"window_ms,omitempty"`
	DowntimeMs        float64 `json:"downtime_ms,omitempty"`
	Loss              bool    `json:"loss,omitempty"`
	ForwarderExpiryMs float64 `json:"forwarder_expiry_ms,omitempty"`
}

// active reports whether the spec injects anything.
func (f FaultsSpec) active() bool {
	return f.FailFraction > 0 || f.Loss || f.ForwarderExpiryMs > 0
}

// MobilitySpec is the wire form of MobilityOptions. Model is "",
// "waypoint" or "rpgm"; recorded traces are not servable (they are bulk
// data, not content-addressable specs).
type MobilitySpec struct {
	Model    string  `json:"model,omitempty"`
	MinSpeed float64 `json:"min_speed,omitempty"`
	MaxSpeed float64 `json:"max_speed,omitempty"`
	PauseMs  float64 `json:"pause_ms,omitempty"`
	StepMs   float64 `json:"step_ms,omitempty"`
	Groups   int     `json:"groups,omitempty"`
}

// RunSpec is the wire form of one complete session: topology, receiver
// draw, protocol, backoff parameters and the option groups.
type RunSpec struct {
	Topo TopoSpec `json:"topo"`
	// GroupSize receivers are drawn from the spec seed's "receivers"
	// substream (source pinned at node 0, like every figure driver).
	GroupSize int     `json:"group_size,omitempty"`
	Protocol  string  `json:"protocol,omitempty"`
	N         int     `json:"n,omitempty"`
	DeltaMs   float64 `json:"delta_ms,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`

	Radio    RadioSpec    `json:"radio,omitempty"`
	Traffic  TrafficSpec  `json:"traffic,omitempty"`
	Faults   FaultsSpec   `json:"faults,omitempty"`
	Mobility MobilitySpec `json:"mobility,omitempty"`
}

// Canonical returns the run spec's normal form: defaults applied (with
// Scenario.normalize()'s values), names lower-cased, backoff parameters
// checked. The canonical form is what Key hashes and what result payloads
// echo back.
func (s RunSpec) Canonical() (RunSpec, error) {
	c := s

	// Topology normal form.
	c.Topo.Kind = strings.ToLower(strings.TrimSpace(c.Topo.Kind))
	switch c.Topo.Kind {
	case "", "grid":
		// The grid is one fixed deployment: no free parameters survive.
		c.Topo = TopoSpec{Kind: "grid"}
	case "random":
		if c.Topo.Nodes == 0 {
			c.Topo.Nodes = 200
		}
		if c.Topo.Nodes < 2 {
			return c, ErrSpecNodes
		}
		if c.Topo.Range == 0 {
			c.Topo.Range = 40
		}
		if c.Topo.Side == 0 {
			c.Topo.Side = topology.ScaledField(c.Topo.Nodes)
		}
	default:
		return c, fmt.Errorf("%w: %q", ErrSpecTopo, s.Topo.Kind)
	}

	// Protocol and backoff parameters.
	if c.Protocol == "" {
		c.Protocol = protocolSpecName(MTMRP)
	}
	p, err := ParseProtocol(c.Protocol)
	if err != nil {
		return c, err
	}
	c.Protocol = protocolSpecName(p)
	if c.GroupSize <= 0 {
		c.GroupSize = 20
	}
	if c.N == 0 {
		c.N = 4
	}
	if c.DeltaMs == 0 {
		c.DeltaMs = 1
	}
	if err := checkSpecBackoff(c.N, c.DeltaMs); err != nil {
		return c, err
	}
	c.Radio.MAC = strings.ToLower(strings.TrimSpace(c.Radio.MAC))
	if c.Radio.MAC == "" {
		c.Radio.MAC = "csma"
	}
	if _, err := parseMAC(c.Radio.MAC); err != nil {
		return c, err
	}

	// Traffic defaults (normalize()'s).
	if t := c.Traffic; t.PayloadLen < 0 || t.DataPackets < 0 || t.DiscoveryRounds < 0 ||
		t.IntervalMs < 0 || t.RefreshIntervalMs < 0 {
		return c, ErrSpecTiming
	}
	if c.Traffic.PayloadLen == 0 {
		c.Traffic.PayloadLen = 64
	}
	if c.Traffic.DataPackets == 0 {
		c.Traffic.DataPackets = 1
	}
	if c.Traffic.DiscoveryRounds == 0 {
		c.Traffic.DiscoveryRounds = 2
	}

	// Fault-plan defaults only apply when something is injected, so an
	// all-zero group stays exactly zero (the pristine paper setting).
	if c.Faults.FailFraction > 0 {
		if c.Faults.StartMs == 0 {
			c.Faults.StartMs = 1200
		}
		if c.Faults.WindowMs == 0 {
			c.Faults.WindowMs = 800
		}
	} else {
		c.Faults.StartMs, c.Faults.WindowMs, c.Faults.DowntimeMs = 0, 0, 0
	}

	// Mobility normal form, mirroring normalize()'s active-only defaults.
	c.Mobility.Model = strings.ToLower(strings.TrimSpace(c.Mobility.Model))
	switch c.Mobility.Model {
	case "", "none", "static":
		c.Mobility = MobilitySpec{}
	case "waypoint", "random-waypoint", "rwp":
		c.Mobility.Model = "waypoint"
	case "rpgm":
	default:
		return c, fmt.Errorf("%w %q", ErrSpecModel, s.Mobility.Model)
	}
	if c.Mobility.Model != "" {
		if c.Mobility.MaxSpeed <= 0 {
			return c, ErrMobilitySpeed
		}
		if c.Mobility.StepMs <= 0 {
			c.Mobility.StepMs = float64(mobility.DefaultStep) / float64(sim.Millisecond)
		}
		if c.Mobility.Groups <= 0 {
			c.Mobility.Groups = 4
		}
		if c.Mobility.MinSpeed <= 0 {
			c.Mobility.MinSpeed = c.Mobility.MaxSpeed / 10
		}
		if c.Traffic.IntervalMs <= 0 {
			return c, ErrMobilityUnpaced
		}
	}
	return c, nil
}

// Key canonicalizes the run spec and returns its content address.
func (s RunSpec) Key() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	enc, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	return keyOf("run", enc), nil
}

// Scenario materialises the canonical spec into a runnable Scenario plus
// its topology. Everything stochastic — the random deployment, the
// receiver draw, the fault schedule, the session seed — derives from the
// spec's seeds through fixed substream names, so the whole run is a pure
// function of the canonical spec (the property the cache key certifies).
func (s RunSpec) Scenario() (Scenario, error) {
	c, err := s.Canonical()
	if err != nil {
		return Scenario{}, err
	}
	var topo *topology.Topology
	if c.Topo.Kind == "grid" {
		topo = topology.PaperGrid()
	} else {
		topo, err = topology.RandomConnected(c.Topo.Nodes, c.Topo.Side, c.Topo.Range,
			rng.New(c.Topo.Seed).Derive("topology"), 100)
		if err != nil {
			return Scenario{}, err
		}
	}
	root := rng.New(c.Seed).Derive("mtmrd-run")
	rcv, err := topo.PickReceivers(0, c.GroupSize, root.Derive("receivers"))
	if err != nil {
		return Scenario{}, err
	}
	p, err := ParseProtocol(c.Protocol)
	if err != nil {
		return Scenario{}, err
	}
	mac, err := parseMAC(c.Radio.MAC)
	if err != nil {
		return Scenario{}, err
	}
	sc := Scenario{
		Topo: topo, Source: 0, Receivers: rcv, Protocol: p,
		N: c.N, Delta: msToTime(c.DeltaMs),
		Seed: root.Derive("run").Uint64(),
		Radio: RadioOptions{
			MAC:               mac,
			DisableCollisions: c.Radio.DisableCollisions,
			ShadowingSigmaDB:  c.Radio.ShadowingSigmaDB,
		},
		Traffic: TrafficOptions{
			PayloadLen:      c.Traffic.PayloadLen,
			DataPackets:     c.Traffic.DataPackets,
			DiscoveryRounds: c.Traffic.DiscoveryRounds,
			Interval:        msToTime(c.Traffic.IntervalMs),
			RefreshInterval: msToTime(c.Traffic.RefreshIntervalMs),
		},
	}
	if c.Faults.active() {
		sc.Faults.ForwarderExpiry = msToTime(c.Faults.ForwarderExpiryMs)
		if c.Faults.FailFraction > 0 {
			sc.Faults.Schedule = fault.Plan(fault.PlanConfig{
				Nodes:        topo.N(),
				Protect:      []int{0},
				FailFraction: c.Faults.FailFraction,
				Start:        msToTime(c.Faults.StartMs),
				Window:       msToTime(c.Faults.WindowMs),
				Downtime:     msToTime(c.Faults.DowntimeMs),
			}, root.Derive("faults"))
		}
		if c.Faults.Loss {
			loss := channel.DefaultLossConfig()
			sc.Faults.Loss = &loss
		}
	}
	if c.Mobility.Model != "" {
		model := mobility.RandomWaypoint
		if c.Mobility.Model == "rpgm" {
			model = mobility.RPGM
		}
		sc.Mobility = MobilityOptions{
			Model:    model,
			MinSpeed: c.Mobility.MinSpeed,
			MaxSpeed: c.Mobility.MaxSpeed,
			Pause:    msToTime(c.Mobility.PauseMs),
			Step:     msToTime(c.Mobility.StepMs),
			Groups:   c.Mobility.Groups,
		}
	}
	return sc, nil
}

// RunFromSpec executes the session a canonical run spec describes, through
// a pooled session when a pool is supplied (bit-identical either way).
func RunFromSpec(s RunSpec, pool *SessionPool) (*Outcome, error) {
	sc, err := s.Scenario()
	if err != nil {
		return nil, err
	}
	if pool != nil {
		return pool.Run(sc)
	}
	return Run(sc)
}

func parseMAC(name string) (network.MACKind, error) {
	switch name {
	case "", "csma":
		return network.MACCSMA, nil
	case "ideal":
		return network.MACIdeal, nil
	}
	return 0, fmt.Errorf("spec: unknown MAC %q", name)
}

// parseProtocolSet resolves a protocol name list to a deduped slice in
// enum order (nil/empty = the paper's four comparison protocols).
func parseProtocolSet(names []string) ([]Protocol, error) {
	if len(names) == 0 {
		return append([]Protocol(nil), AllProtocols...), nil
	}
	var seen [8]bool
	var out []Protocol
	for _, name := range names {
		p, err := ParseProtocol(name)
		if err != nil {
			return nil, err
		}
		seen[p] = true
	}
	for p := Protocol(0); int(p) < len(seen); p++ {
		if seen[p] {
			out = append(out, p)
		}
	}
	return out, nil
}

// checkSpecBackoff rejects defaulted backoff parameters no protocol can
// run: N < 1, or a δ that is not a positive virtual time (negative, below
// one nanosecond, or overflowing).
func checkSpecBackoff(n int, deltaMs float64) error {
	if n < 1 || msToTime(deltaMs) <= 0 {
		return ErrSpecBackoff
	}
	return nil
}

// msToTime converts a wire-level millisecond float to virtual time.
func msToTime(ms float64) sim.Time {
	return sim.Time(ms * float64(sim.Millisecond))
}
