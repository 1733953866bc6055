// Package network wires topology, channel, MAC and routing protocol into a
// runnable simulated sensor network, and exposes the observation hooks the
// metrics layer consumes.
package network

import (
	"fmt"

	"mtmrp/internal/channel"
	"mtmrp/internal/mac"
	"mtmrp/internal/packet"
	"mtmrp/internal/radio"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

// MACKind selects the MAC layer for a run.
type MACKind uint8

// Available MAC layers.
const (
	MACCSMA  MACKind = iota // 802.11-style contention MAC (paper's setting)
	MACIdeal                // contention-free, for deterministic tests
)

// Config parameterises a network build.
type Config struct {
	Radio             radio.Params
	MAC               MACKind
	CSMA              mac.CSMAConfig
	DisableCollisions bool
	// ShadowingSigmaDB enables per-frame log-normal fading (0 = the
	// paper's deterministic disc).
	ShadowingSigmaDB float64
	Seed             uint64

	// Links, when set, is a precomputed (typically shared) link table for
	// the topology under Radio. New skips the per-build link computation and
	// wires the channel directly over it. The table must match the topology
	// size and the Radio parameters; New panics on a mismatch rather than
	// silently simulating a different PHY.
	Links *channel.LinkTable
}

// DefaultConfig is the paper's PHY/MAC: two-ray ground sized to a 40 m
// range, carrier sensing at 2.2x, 802.11 CSMA.
func DefaultConfig(seed uint64) Config {
	return Config{
		Radio: radio.MustDefault80211Params(40, 2.2),
		MAC:   MACCSMA,
		CSMA:  mac.DefaultCSMAConfig(),
		Seed:  seed,
	}
}

// Protocol is the routing layer contract. Attach is called exactly once
// while the network is built; Start is called when the simulation begins.
type Protocol interface {
	Attach(n *Node)
	Start()
	Receive(p *packet.Packet)
}

// Node is one sensor node: identity, position, group membership, MAC and
// protocol instance.
type Node struct {
	ID       packet.NodeID
	Pos      int // index into the topology (== int(ID))
	net      *Network
	mac      mac.MAC
	proto    Protocol
	groups   []packet.GroupID // sorted memberships (small; linear scan)
	down     bool
	Rand     *rng.RNG // per-node substream for protocol jitter
	rngLabel string   // precomputed "node-i" derivation key for Reset
}

// Network owns the simulation.
type Network struct {
	Sim   *sim.Simulator
	Topo  *topology.Topology
	Chan  *channel.Channel
	Nodes []*Node
	Rand  *rng.RNG

	root     rng.RNG         // seed material all substreams derive from
	chanRand *rng.RNG        // the channel's shadowing stream (reseeded on Reset)
	lossRand *rng.RNG        // the channel's loss-model stream (reseeded on Reset)
	pkt      *packet.Factory // pooled frames shared by the whole simulation

	// OnTransmit observes every frame put on the air (after MAC).
	OnTransmit func(from *Node, p *packet.Packet)
	// OnDeliver observes every frame successfully received, before the
	// protocol handles it.
	OnDeliver func(to *Node, p *packet.Packet)
}

// New builds a network over the topology. Protocols are attached
// separately with SetProtocol so one network builder serves every routing
// scheme. It ends in Reset, which derives every random substream from
// cfg.Seed.
func New(topo *topology.Topology, cfg Config) *Network {
	links := cfg.Links
	if links == nil {
		links = channel.NewLinkTable(topo.Positions, cfg.Radio)
	} else {
		if links.N() != topo.N() {
			panic(fmt.Sprintf("network: link table built for %d nodes, topology has %d", links.N(), topo.N()))
		}
		// Model instances are compared by name: radioFor-style constructors
		// allocate a fresh (identical) model per call, so pointer equality
		// would reject tables that describe the same PHY.
		lp, rp := links.Params(), cfg.Radio
		if lp.TxPower != rp.TxPower || lp.RXThresh != rp.RXThresh ||
			lp.CSThresh != rp.CSThresh || lp.BitRate != rp.BitRate ||
			lp.Model.Name() != rp.Model.Name() {
			panic("network: link table radio parameters differ from Config.Radio")
		}
	}
	s := sim.New()
	net := &Network{
		Sim:      s,
		Nodes:    make([]*Node, topo.N()),
		Rand:     new(rng.RNG),
		chanRand: new(rng.RNG),
		lossRand: new(rng.RNG),
		pkt:      packet.NewFactory(),
	}
	ch := channel.NewWithTable(s, links, channel.Config{
		DisableCollisions: cfg.DisableCollisions,
		ShadowingSigmaDB:  cfg.ShadowingSigmaDB,
		Rand:              net.chanRand,
		LossRand:          net.lossRand,
		Pool:              net.pkt,
	})
	net.Chan = ch
	ch.OnAir = func(from int, p *packet.Packet) {
		n := net.Nodes[from]
		if net.OnTransmit != nil {
			net.OnTransmit(n, p)
		}
	}
	ch.OnDeliver = func(to int, p *packet.Packet) {
		n := net.Nodes[to]
		if n.down {
			return
		}
		if net.OnDeliver != nil {
			net.OnDeliver(n, p)
		}
	}
	for i := range net.Nodes {
		n := &Node{
			ID:       packet.NodeID(i),
			Pos:      i,
			net:      net,
			Rand:     new(rng.RNG),
			rngLabel: fmt.Sprintf("node-%d", i),
		}
		switch cfg.MAC {
		case MACCSMA:
			n.mac = mac.NewCSMA(s, ch, i, cfg.CSMA, new(rng.RNG))
		case MACIdeal:
			n.mac = mac.NewIdeal(s, ch, i)
		default:
			panic(fmt.Sprintf("network: unknown MAC kind %d", cfg.MAC))
		}
		net.Nodes[i] = n
		n.mac.SetUpper(func(p *packet.Packet) { net.deliver(i, p) })
	}
	net.Reset(topo, links, cfg.Seed)
	return net
}

func (net *Network) deliver(i int, p *packet.Packet) {
	n := net.Nodes[i]
	if n.down || n.proto == nil {
		return
	}
	n.proto.Receive(p)
}

// SetProtocol installs the routing protocol on node i.
func (net *Network) SetProtocol(i int, p Protocol) {
	n := net.Nodes[i]
	n.proto = p
	p.Attach(n)
}

// Start invokes Start on every protocol instance. Call after all
// SetProtocol calls and before running the simulator.
func (net *Network) Start() {
	for _, n := range net.Nodes {
		if n.proto != nil && !n.down {
			n.proto.Start()
		}
	}
}

// Reset rewinds the network to the state New would have produced for
// (topo, links, seed), reusing every long-lived structure: the simulator's
// pools, the channel (and its fan records), the MAC instances, the
// packet factory and the per-node RNGs. The topology must have the same
// node count and radio parameters as the one the network was built with.
//
// New ends in Reset, so every random substream is derived here and only
// here (Derive is a pure function of seed material and name): a reset
// network is bit-identical to a freshly built one. Protocol state is not
// touched here — callers reset their routers separately.
func (net *Network) Reset(topo *topology.Topology, links *channel.LinkTable, seed uint64) {
	if topo.N() != len(net.Nodes) {
		panic(fmt.Sprintf("network: Reset with %d-node topology, network has %d", topo.N(), len(net.Nodes)))
	}
	if links == nil {
		panic("network: Reset requires a link table")
	}
	net.Sim.Reset()
	net.root.Seed(seed)
	net.root.DeriveInto("channel", net.chanRand)
	// The loss stream is always derived — Derive is a pure function of the
	// seed material and does not advance the parent, so carrying the stream
	// even when no loss model is configured cannot perturb any other stream.
	net.root.DeriveInto("loss", net.lossRand)
	net.root.DeriveInto("network", net.Rand)
	net.Topo = topo
	net.Chan.Reset(links)
	for _, n := range net.Nodes {
		net.root.DeriveInto(n.rngLabel, n.Rand)
		n.groups = n.groups[:0]
		n.down = false
		n.mac.Reset(n.Rand)
	}
}

// AdoptIdle gives net the state src reached by draining its event queue:
// the simulator's clock and counters (events queued on net are dropped),
// the channel's run state, every MAC, the channel's shadowing and loss
// streams and each node's liveness. Both networks must have been Reset
// onto the same topology, link table and seed, with the same group
// memberships and loss model; the networks then run on bit-identically,
// but the events src ran are not run again. The network and per-node
// streams are seed material that is only derived from, never drawn, so
// the Reset already made them equal. Protocol state is not touched here.
func (net *Network) AdoptIdle(src *Network) {
	if len(src.Nodes) != len(net.Nodes) {
		panic(fmt.Sprintf("network: AdoptIdle from a %d-node network, network has %d", len(src.Nodes), len(net.Nodes)))
	}
	net.Sim.AdoptIdle(src.Sim)
	net.Chan.AdoptIdle(src.Chan)
	*net.chanRand = *src.chanRand
	*net.lossRand = *src.lossRand
	for i, n := range net.Nodes {
		s := src.Nodes[i]
		n.down = s.down
		n.mac.AdoptIdle(s.mac)
	}
}

// SetLoss installs (or, with nil, removes) a Gilbert–Elliott bursty-loss
// model on the channel. Per-run: Reset clears the chain state, so callers
// re-apply the model after every Reset.
func (net *Network) SetLoss(cfg *channel.LossConfig) { net.Chan.SetLoss(cfg) }

// Degrade marks node i's links as degraded (both directions); frames
// touching a degraded endpoint drop with the loss model's DegradedDrop
// probability. Restore with Degrade(i, false).
func (net *Network) Degrade(i int, on bool) { net.Chan.SetDegraded(i, on) }

// Packets returns the simulation's shared frame factory; protocols build
// their outgoing frames through it so the channel can recycle them.
func (net *Network) Packets() *packet.Factory { return net.pkt }

// Run drives the simulation until the event queue drains.
func (net *Network) Run() { net.Sim.Run() }

// RunUntil drives the simulation up to virtual time t.
func (net *Network) RunUntil(t sim.Time) { net.Sim.RunUntil(t) }

// --- Node services used by protocols ---

// Net returns the owning network.
func (n *Node) Net() *Network { return n.net }

// Proto returns the node's protocol instance (nil before SetProtocol).
func (n *Node) Proto() Protocol { return n.proto }

// Send broadcasts a frame via the MAC. Downed nodes silently drop.
func (n *Node) Send(p *packet.Packet) {
	if n.down {
		return
	}
	p.From = n.ID
	n.mac.Send(p)
}

// After schedules fn on the simulator, skipping execution if the node has
// failed by then.
func (n *Node) After(d sim.Time, fn func()) sim.Event {
	return n.net.Sim.After(d, func() {
		if !n.down {
			fn()
		}
	})
}

// AfterCall is the closure-free counterpart of After for protocol hot
// paths. Unlike After, it does not wrap the callback in a liveness check:
// the callee must test Down() itself if the node may fail mid-simulation.
func (n *Node) AfterCall(d sim.Time, cb sim.Callback, arg any, i int) sim.Event {
	return n.net.Sim.AfterCall(d, cb, arg, i)
}

// Packets returns the shared frame factory (see Network.Packets).
func (n *Node) Packets() *packet.Factory { return n.net.pkt }

// Now returns the current virtual time.
func (n *Node) Now() sim.Time { return n.net.Sim.Now() }

// JoinGroup adds the node to a multicast group (a "multicast receiver").
func (n *Node) JoinGroup(g packet.GroupID) {
	for i, x := range n.groups {
		if x == g {
			return
		}
		if x > g {
			n.groups = append(n.groups, 0)
			copy(n.groups[i+1:], n.groups[i:])
			n.groups[i] = g
			return
		}
	}
	n.groups = append(n.groups, g)
}

// LeaveGroup removes the node from a multicast group.
func (n *Node) LeaveGroup(g packet.GroupID) {
	for i, x := range n.groups {
		if x == g {
			n.groups = append(n.groups[:i], n.groups[i+1:]...)
			return
		}
	}
}

// InGroup reports group membership.
func (n *Node) InGroup(g packet.GroupID) bool {
	for _, x := range n.groups {
		if x == g {
			return true
		}
	}
	return false
}

// Groups returns the node's memberships in sorted order. The slice is the
// node's own storage: callers must not modify or retain it (HELLO encoding
// copies it into the frame).
func (n *Node) Groups() []packet.GroupID { return n.groups }

// Fail takes the node down: it stops sending, receiving and timing out.
// Used by the fault schedule (internal/fault) and the failure-injection
// tests.
func (n *Node) Fail() { n.down = true }

// Recover brings a failed node back (fresh protocol state is the caller's
// concern).
func (n *Node) Recover() { n.down = false }

// Down reports whether the node has failed.
func (n *Node) Down() bool { return n.down }

// NeighborIDs returns the topology neighbors of this node.
func (n *Node) NeighborIDs() []packet.NodeID {
	ns := n.net.Topo.Neighbors(n.Pos)
	out := make([]packet.NodeID, len(ns))
	for i, v := range ns {
		out[i] = packet.NodeID(v)
	}
	return out
}
