package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"mtmrp/internal/channel"
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

// ParseProtocol resolves a protocol name: any spelling protocolNames
// lists (the wire name, the figure legend String prints or an alias),
// ignoring case and surrounding space.
func ParseProtocol(name string) (Protocol, error) {
	s := strings.ToLower(strings.TrimSpace(name))
	for p, n := range protocolNames {
		if s == n.wire || strings.EqualFold(s, n.legend) || slices.Contains(n.aliases, s) {
			return Protocol(p), nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrSpecProtocol, name)
}

// protocolSpecName is the canonical wire spelling of a protocol (the form
// ParseProtocol round-trips and the one that lands in cache keys).
func protocolSpecName(p Protocol) string {
	if int(p) < len(protocolNames) {
		return protocolNames[p].wire
	}
	return fmt.Sprintf("protocol-%d", uint8(p))
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
// the mobility sweep. Zero fields take each kind's defaults — those
// GroupSizeSweep, FaultSweep and MobilitySweep apply, read from
// defaults.go. Each field's `kinds` tag declares the kinds that own it
// ("all" for every kind); a field set on a kind that does not own it is
// rejected by Canonical rather than silently hashed.
type SweepSpec struct {
	// Kind is the sweep family: "" or "group-size" (Figures 5/6),
	// "fault" or "mobility". Canonical keeps the group-size kind spelled
	// "" so every pre-registry spec hashes to its original key.
	Kind string `json:"kind,omitempty" kinds:"all"`
	// Topo is the topology family: "grid" (Fig. 5) or "random" (Fig. 6).
	Topo string `json:"topo" kinds:"all"`
	// Sizes are the multicast group sizes swept. Order and duplicates do
	// not matter: per-cell results depend only on (size, run) — the sweep
	// labels its rounds that way — so Canonical sorts and dedups.
	Sizes []int `json:"sizes,omitempty" kinds:"group-size"`
	// Runs is the Monte-Carlo round count per axis point.
	Runs int `json:"runs,omitempty" kinds:"all"`
	// Seed is the sweep's root seed.
	Seed uint64 `json:"seed,omitempty" kinds:"all"`
	// Protocols names the protocols compared (see ParseProtocol). Order
	// and duplicates do not matter: within a round every protocol draws
	// its randomness from its own derived stream, so per-protocol cells
	// are independent of the protocol set; Canonical sorts and dedups.
	Protocols []string `json:"protocols,omitempty" kinds:"all"`
	// N and DeltaMs are the biased-backoff parameters.
	N       int     `json:"n,omitempty" kinds:"group-size"`
	DeltaMs float64 `json:"delta_ms,omitempty" kinds:"group-size"`

	// Axis-point shape shared by the fault and mobility kinds.
	GroupSize         int     `json:"group_size,omitempty" kinds:"fault,mobility"`
	Packets           int     `json:"packets,omitempty" kinds:"fault,mobility"`
	IntervalMs        float64 `json:"interval_ms,omitempty" kinds:"fault,mobility"`
	RefreshIntervalMs float64 `json:"refresh_interval_ms,omitempty" kinds:"fault,mobility"`
	ForwarderExpiryMs float64 `json:"forwarder_expiry_ms,omitempty" kinds:"fault,mobility"`

	// Fault kind: the crash-probability axis and the plan window
	// (FaultConfig's fields; permanent crashes and no ambient loss by
	// default).
	FailFractions []float64 `json:"fail_fractions,omitempty" kinds:"fault"`
	StartMs       float64   `json:"start_ms,omitempty" kinds:"fault"`
	WindowMs      float64   `json:"window_ms,omitempty" kinds:"fault"`
	DowntimeMs    float64   `json:"downtime_ms,omitempty" kinds:"fault"`
	Loss          bool      `json:"loss,omitempty" kinds:"fault"`

	// Mobility kind: the (speed, pause) grid and motion model
	// (MobilityConfig's fields; "" is random waypoint).
	Model    string    `json:"model,omitempty" kinds:"mobility"`
	Speeds   []float64 `json:"speeds,omitempty" kinds:"mobility"`
	PausesMs []float64 `json:"pauses_ms,omitempty" kinds:"mobility"`
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
	topo, err := ParseTopoKind(s.Topo)
	if err != nil {
		return c, err
	}
	c.Topo = topo.String()
	protos, err := parseProtocolSet(s.Protocols)
	if err != nil {
		return c, err
	}
	c.Protocols = make([]string, len(protos))
	for i, p := range protos {
		c.Protocols[i] = protocolSpecName(p)
	}
	if err := k.ownedOnly(&c); err != nil {
		return c, err
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
	topo, _ := ParseTopoKind(c.Topo)
	return SweepConfig{
		Topo: topo, Sizes: c.Sizes, Runs: c.Runs, Seed: c.Seed,
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

// Canonical returns the run spec's normal form: defaults applied (the
// ones Scenario.normalize applies, from defaults.go), names resolved to
// their canonical spelling, backoff parameters checked. The canonical form
// is what Key hashes and what result payloads echo back.
func (s RunSpec) Canonical() (RunSpec, error) {
	c := s

	// Topology normal form.
	topo, err := ParseTopoKind(c.Topo.Kind)
	if err != nil {
		return c, err
	}
	if topo == GridTopo {
		// The grid is one fixed deployment: no free parameters survive.
		c.Topo = TopoSpec{Kind: topo.String()}
	} else {
		c.Topo.Kind = topo.String()
		orDefault(&c.Topo.Nodes, 200)
		if c.Topo.Nodes < 2 {
			return c, ErrSpecNodes
		}
		orDefault(&c.Topo.Range, 40)
		if c.Topo.Side == 0 {
			c.Topo.Side = topology.ScaledField(c.Topo.Nodes)
		}
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
		c.GroupSize = defaultGroupSize
	}
	orDefault(&c.N, defaultN)
	orDefault(&c.DeltaMs, defaultDelta.Millis())
	if checkBackoff(c.N, msToTime(c.DeltaMs)) != nil {
		return c, ErrSpecBackoff
	}
	c.Radio.MAC = strings.ToLower(strings.TrimSpace(c.Radio.MAC))
	if c.Radio.MAC == "" {
		c.Radio.MAC = "csma"
	}
	if _, err := parseMAC(c.Radio.MAC); err != nil {
		return c, err
	}

	// Traffic defaults.
	if t := c.Traffic; t.PayloadLen < 0 || t.DataPackets < 0 || t.DiscoveryRounds < 0 ||
		t.IntervalMs < 0 || t.RefreshIntervalMs < 0 {
		return c, ErrSpecTiming
	}
	orDefault(&c.Traffic.PayloadLen, defaultPayloadLen)
	orDefault(&c.Traffic.DataPackets, defaultDataPackets)
	orDefault(&c.Traffic.DiscoveryRounds, defaultDiscoveryRounds)

	// Fault-plan defaults only apply when something is injected, so an
	// all-zero group stays exactly zero (the pristine paper setting).
	if c.Faults.FailFraction > 0 {
		orDefault(&c.Faults.StartMs, defaultFaultStart.Millis())
		orDefault(&c.Faults.WindowMs, defaultFaultWindow.Millis())
	} else {
		c.Faults.StartMs, c.Faults.WindowMs, c.Faults.DowntimeMs = 0, 0, 0
	}

	// Mobility normal form: "" is no motion, and normalize's defaults
	// apply only to a moving session.
	model := mobility.None
	if strings.TrimSpace(c.Mobility.Model) != "" {
		var ok bool
		if model, ok = mobility.ParseModel(c.Mobility.Model); !ok {
			return c, fmt.Errorf("%w %q", ErrSpecModel, s.Mobility.Model)
		}
	}
	if model == mobility.None {
		c.Mobility = MobilitySpec{}
		return c, nil
	}
	c.Mobility.Model = model.String()
	if c.Mobility.MaxSpeed <= 0 {
		return c, ErrMobilitySpeed
	}
	if c.Mobility.StepMs <= 0 {
		c.Mobility.StepMs = mobility.DefaultStep.Millis()
	}
	if c.Mobility.Groups <= 0 {
		c.Mobility.Groups = defaultMobilityGroups
	}
	if c.Mobility.MinSpeed <= 0 {
		c.Mobility.MinSpeed = defaultMinSpeed(c.Mobility.MaxSpeed)
	}
	if c.Traffic.IntervalMs <= 0 {
		return c, ErrMobilityUnpaced
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
	if kind, _ := ParseTopoKind(c.Topo.Kind); kind == GridTopo {
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
			sc.Faults.Schedule = planFaults(topo.N(), c.Faults.FailFraction,
				msToTime(c.Faults.StartMs), msToTime(c.Faults.WindowMs), msToTime(c.Faults.DowntimeMs), root)
		}
		if c.Faults.Loss {
			loss := channel.DefaultLossConfig()
			sc.Faults.Loss = &loss
		}
	}
	if model, _ := mobility.ParseModel(c.Mobility.Model); model != mobility.None {
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
	var seen [len(protocolNames)]bool
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

// msToTime converts a wire-level millisecond float to virtual time.
func msToTime(ms float64) sim.Time {
	return sim.Time(ms * float64(sim.Millisecond))
}
