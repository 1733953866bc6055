package experiment

import (
	"mtmrp/internal/channel"
	"mtmrp/internal/fault"
	"mtmrp/internal/mobility"
	"mtmrp/internal/network"
	"mtmrp/internal/sim"
)

// RadioOptions groups the channel-realism knobs of a Scenario: which MAC
// runs under the protocols and how faithful the PHY is. The zero value is
// the paper's setting (CSMA, collisions on, no fading).
type RadioOptions struct {
	// MAC selects the MAC layer (default: CSMA with collisions, the
	// paper's setting; MACIdeal is the deterministic test MAC).
	MAC network.MACKind
	// DisableCollisions delivers overlapping frames anyway.
	DisableCollisions bool
	// ShadowingSigmaDB enables log-normal fading (0 = the paper's
	// setting: "the shadowing fading factor is not considered").
	ShadowingSigmaDB float64
}

// TrafficOptions groups the workload-shape knobs of a Scenario: what the
// source sends and how discovery interleaves with it. The zero value is
// one 64-byte packet after two discovery rounds, all phases back to back.
type TrafficOptions struct {
	// PayloadLen is the DATA payload size in bytes (default 64).
	PayloadLen int
	// DataPackets is how many data packets the source pushes down the
	// constructed tree (default 1). More packets amortise the discovery
	// cost — the trade-off §V.B.3 discusses.
	DataPackets int
	// DiscoveryRounds is how many times the source floods a JoinQuery
	// before the data phase (default 2). On-demand mesh protocols refresh
	// their routes with periodic JoinQuery floods (ODMRP's refresh
	// interval); without at least one refresh, a single collision in the
	// JoinReply phase can orphan a partially-built tree — later replies
	// stop at nodes already flagged as forwarders whose own path to the
	// source never completed. Data flows down the tree of the last round.
	DiscoveryRounds int
	// Interval paces the data phase: successive packets are sent this far
	// apart in virtual time, so fault events and soft-state timers can
	// fire between them. 0 (the default) keeps the legacy send-then-drain
	// loop, which is what every golden experiment pins.
	Interval sim.Time
	// RefreshInterval re-floods a JoinQuery from the source periodically
	// during a paced data phase — ODMRP's route refresh running inside
	// the traffic, so a tree broken by faults is rebuilt while packets
	// keep flowing. 0 disables refresh; requires Interval > 0 to matter.
	RefreshInterval sim.Time
}

// FaultOptions groups the robustness knobs of a Scenario: what goes wrong
// during the run and how aggressively the protocols age their state. The
// zero value injects nothing — the pristine field of the paper.
type FaultOptions struct {
	// Schedule lists the node crash/recover and link degrade/restore
	// events armed on the simulator at session start (nil = none). The
	// HELLO phase drains the queue, so every event fires before discovery
	// starts, whatever its time (Session.RunHello).
	Schedule fault.Schedule
	// Loss enables the Gilbert–Elliott bursty per-link loss model
	// (nil = the lossless disc).
	Loss *channel.LossConfig
	// ForwarderExpiry soft-states the forwarding-group flags
	// (proto.Config.FGLifetime); 0 keeps them for the whole run.
	ForwarderExpiry sim.Time
}

// MobilityOptions groups the node-motion knobs of a Scenario. The zero
// value is a static field — the paper's setting — and takes the shared
// static link-table path untouched, so every existing experiment is
// byte-identical with mobility absent. A non-zero group gives the session
// its own dynamic link table, draws a motion plan from the run seed's
// "mobility" substream (or replays Trace), and executes it as scheduled
// events during the paced data phase; the multicast source is pinned.
type MobilityOptions struct {
	// Model selects the motion model (MobilityNone = static field).
	Model mobility.Model
	// MinSpeed and MaxSpeed bound the per-leg uniform speed in m/s.
	// MinSpeed defaults to MaxSpeed/10 (the speed-decay guard).
	MinSpeed, MaxSpeed float64
	// Pause is the maximum waypoint pause, uniform in [0,Pause]; zero
	// means continuous motion.
	Pause sim.Time
	// Step is the position-update tick (default mobility.DefaultStep).
	Step sim.Time
	// Groups is the RPGM group count (default 4); ignored by other models.
	Groups int
	// Trace, when non-nil, replays a recorded motion plan (see
	// cmd/topogen -motion) instead of drawing one; Model and the speed
	// knobs are then ignored. The plan must cover exactly Topo.N() nodes.
	Trace *mobility.Plan
}

// active reports whether the scenario moves nodes at all. Inactive
// mobility takes the static link-table path bit for bit.
func (m *MobilityOptions) active() bool {
	return m.Model != mobility.None || m.Trace != nil
}

// normalize applies the documented Scenario defaults. Both NewSession and
// Reset call it first.
func (sc *Scenario) normalize() {
	if sc.N == 0 {
		sc.N = 4
	}
	if sc.Delta == 0 {
		sc.Delta = sim.Millisecond
	}
	if sc.Traffic.PayloadLen == 0 {
		sc.Traffic.PayloadLen = 64
	}
	if sc.Traffic.DataPackets == 0 {
		sc.Traffic.DataPackets = 1
	}
	if sc.Traffic.DiscoveryRounds == 0 {
		sc.Traffic.DiscoveryRounds = 2
	}

	// Mobility defaults apply only when the group is active, so an
	// all-zero group stays exactly zero (static path).
	if sc.Mobility.active() {
		if sc.Mobility.Step <= 0 {
			sc.Mobility.Step = mobility.DefaultStep
		}
		if sc.Mobility.Groups <= 0 {
			sc.Mobility.Groups = 4
		}
		if sc.Mobility.MinSpeed <= 0 {
			sc.Mobility.MinSpeed = sc.Mobility.MaxSpeed / 10
		}
	}
}

// validate reports the scenario errors shared by NewSession and Reset.
func (sc *Scenario) validate() error {
	if len(sc.Receivers) == 0 {
		return ErrNoReceivers
	}
	if sc.Topo == nil || sc.Source < 0 || sc.Source >= sc.Topo.N() {
		return ErrBadSource
	}
	if sc.Mobility.active() {
		if sc.Traffic.Interval <= 0 {
			return ErrMobilityUnpaced
		}
		if sc.Mobility.Trace == nil && sc.Mobility.MaxSpeed <= 0 {
			return ErrMobilitySpeed
		}
		if tr := sc.Mobility.Trace; tr != nil && tr.N() != sc.Topo.N() {
			return ErrMobilityTrace
		}
	}
	return nil
}
