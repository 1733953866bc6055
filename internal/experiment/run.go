// Package experiment orchestrates complete simulated multicast sessions
// and the Monte-Carlo sweeps that reproduce the paper's Figures 5–10:
// build a topology, wire up a protocol on every node, run the HELLO phase,
// flood the JoinQuery, let the tree form, push one data packet down it, and
// collect the paper's metrics.
package experiment

import (
	"errors"
	"fmt"
	"io"

	"mtmrp/internal/channel"
	"mtmrp/internal/core"
	"mtmrp/internal/dodmrp"
	"mtmrp/internal/flood"
	"mtmrp/internal/gmr"
	"mtmrp/internal/metrics"
	"mtmrp/internal/network"
	"mtmrp/internal/odmrp"
	"mtmrp/internal/packet"
	"mtmrp/internal/proto"
	"mtmrp/internal/radio"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

// Protocol selects the routing protocol under test.
type Protocol uint8

// The protocols compared in the paper's evaluation, plus the flooding
// strawman from the introduction.
const (
	MTMRP Protocol = iota
	MTMRPNoPHS
	DODMRP
	ODMRP
	Flooding
	GMR // stateless geographic multicast (related-work baseline)
)

// protocolNames is the one table of protocol spellings, indexed by
// Protocol: the wire name (the canonical form in specs and cache keys),
// the figure-legend name String prints, and further accepted aliases.
// ParseProtocol accepts all three, ignoring case and surrounding space.
var protocolNames = [...]struct {
	wire, legend string
	aliases      []string
}{
	MTMRP:      {"mtmrp", "MTMRP", nil},
	MTMRPNoPHS: {"mtmrp-nophs", "MTMRP w/o PHS", []string{"mtmrpnophs", "nophs"}},
	DODMRP:     {"dodmrp", "DODMRP", nil},
	ODMRP:      {"odmrp", "ODMRP", nil},
	Flooding:   {"flooding", "Flooding", []string{"flood"}},
	GMR:        {"gmr", "GMR", []string{"geographic"}},
}

// String implements fmt.Stringer, matching the paper's figure legends.
func (p Protocol) String() string {
	if int(p) < len(protocolNames) {
		return protocolNames[p].legend
	}
	return fmt.Sprintf("Protocol(%d)", uint8(p))
}

// AllProtocols lists the four protocols of Figures 5–8 in legend order.
var AllProtocols = []Protocol{MTMRP, MTMRPNoPHS, DODMRP, ODMRP}

// Scenario describes one simulated session. Options come in four groups —
// Radio (channel realism), Traffic (workload shape), Faults (injected
// dynamics) and Mobility (node motion) — plus the identity fields below.
type Scenario struct {
	Topo      *topology.Topology
	Source    int
	Receivers []int
	Protocol  Protocol

	// N and Delta are the biased-backoff parameters (paper defaults 4 and
	// 1 ms; zero values take the defaults).
	N     int
	Delta sim.Time

	// Seed drives every stochastic component of the run.
	Seed uint64

	// Radio selects the MAC and PHY realism.
	Radio RadioOptions
	// Traffic shapes the data phase and its interleaved discovery.
	Traffic TrafficOptions
	// Faults injects node/link dynamics and soft-states the protocols.
	Faults FaultOptions
	// Mobility moves nodes during the paced data phase (zero = the
	// paper's static field).
	Mobility MobilityOptions

	// Core overrides the full MTMRP configuration, protocol timing
	// included (ablation studies); nil derives it from Protocol, N and
	// Delta with the default timing. Ignored for non-MTMRP protocols.
	// Part of the session shape: sessions reset only onto an equal Core.
	Core *core.Config

	// TraceWriter, when non-nil, receives the JSONL event log of the run
	// (one line per frame transmitted or delivered).
	TraceWriter io.Writer

	// digest turns on the network's frame digest for the run
	// (network.Network.Digest): tests pin the order of frames on the air
	// with it.
	digest bool

	// Links, when non-nil, is a precomputed link table for Topo under the
	// default radio (radioFor(Topo)) — typically shared across the
	// protocol variants of a paired round, or across every round on the
	// fixed grid. The simulated behaviour is identical with or without it;
	// sharing only removes the per-run O(n·density) table build. Mobile
	// scenarios (Mobility active) ignore it: the session owns a dynamic
	// table instead, because a shared table must never be mutated.
	Links *channel.LinkTable
}

// Errors returned by Run.
var (
	ErrNoReceivers = errors.New("experiment: scenario has no receivers")
	ErrBadSource   = errors.New("experiment: source index out of range")
	// ErrTraffic rejects a negative Traffic field.
	ErrTraffic = errors.New("experiment: traffic fields must be non-negative")
	// ErrMobilityUnpaced rejects a mobile scenario without a paced data
	// phase (Traffic.Interval > 0): motion executes as scheduled events
	// inside that phase, so without pacing nothing would ever move.
	ErrMobilityUnpaced = errors.New("experiment: mobility requires Traffic.Interval > 0")
	// ErrMobilitySpeed rejects a drawn motion model with no positive
	// MaxSpeed.
	ErrMobilitySpeed = errors.New("experiment: mobility model requires MaxSpeed > 0")
	// ErrMobilityTrace rejects a motion trace that does not cover exactly
	// the topology's nodes.
	ErrMobilityTrace = errors.New("experiment: mobility trace does not match topology size")
)

// Outcome bundles the metrics of one run with the session bookkeeping the
// figure drivers need.
type Outcome struct {
	Result metrics.Result
	// Robustness carries the fault-injection metrics (all-ones PDR for a
	// pristine run); kept separate from Result so the golden-pinned Result
	// schema stays frozen.
	Robustness metrics.Robustness
	Key        packet.FloodKey
	Net        *network.Network
	Routers    []proto.Router
	Scenario   Scenario
}

// Run executes one complete session — HELLO, discovery with refresh
// rounds, data packets — and returns its metrics. It is a thin wrapper
// over the phased Session API; studies that interleave phases use
// NewSession directly.
func Run(sc Scenario) (*Outcome, error) {
	s, err := NewSession(sc)
	if err != nil {
		return nil, err
	}
	s.RunHello()
	return s.finish()
}

// radioFor derives PHY parameters matching the topology's nominal range,
// with the ns-2 default 2.2x carrier-sense ratio.
func radioFor(t *topology.Topology) radio.Params {
	return radio.MustDefault80211Params(t.Range, 2.2)
}

// LinkTableFor precomputes the channel link table for a topology under the
// default radio. Build it once and set Scenario.Links when running several
// sessions (protocol variants, Monte-Carlo rounds) on the same topology.
func LinkTableFor(t *topology.Topology) *channel.LinkTable {
	return channel.NewLinkTable(t.Positions, radioFor(t))
}

// coreOverride returns the MTMRP configuration sc overrides, or nil when
// its routers derive theirs from Protocol, N and Delta.
func (sc *Scenario) coreOverride() *core.Config {
	if sc.Protocol != MTMRP && sc.Protocol != MTMRPNoPHS {
		return nil
	}
	return sc.Core
}

// protoConfig returns the shared protocol timing sc's routers run with.
func protoConfig(sc Scenario) proto.Config {
	if c := sc.coreOverride(); c != nil {
		return c.Proto
	}
	return proto.DefaultConfig()
}

// setBackoff retunes the (N, δ) backoff of a router whose protocol has
// one. It switches on the concrete types buildRouter makes rather than
// asserting an interface, whose runtime type cache fills (allocating) at
// random calls, so that a reused session allocates nothing.
func setBackoff(r proto.Router, n int, delta sim.Time) {
	switch r := r.(type) {
	case *core.Router:
		r.SetBackoff(n, delta)
	case *dodmrp.Router:
		r.SetBackoff(n, delta)
	case *odmrp.Router:
		r.SetBackoff(n, delta)
	}
}

// buildRouter builds a router of sc's shape. The backoff (N, δ) is per
// run: Session.Reset sets it, unless a Core override carries its own.
func buildRouter(sc Scenario) proto.Router {
	switch sc.Protocol {
	case MTMRP, MTMRPNoPHS:
		if sc.Core != nil {
			return core.New(*sc.Core)
		}
		c := core.DefaultConfig()
		c.PHS = sc.Protocol == MTMRP
		return core.New(c)
	case DODMRP:
		return dodmrp.New(dodmrp.DefaultConfig())
	case ODMRP:
		return odmrp.New(odmrp.DefaultConfig())
	case Flooding:
		return flood.New(flood.DefaultConfig())
	case GMR:
		return gmr.New(gmr.DefaultConfig())
	default:
		panic(fmt.Sprintf("experiment: unknown protocol %d", sc.Protocol))
	}
}
