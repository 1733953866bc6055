// Package core implements MTMRP, the paper's primary contribution: a
// distributed minimum-transmission multicast routing protocol for wireless
// sensor networks (§IV).
//
// MTMRP extends on-demand JoinQuery/JoinReply route discovery with two
// mechanisms:
//
//  1. The biased backoff scheme (§IV.C.3). A node delays its JoinQuery
//     rebroadcast by
//
//     t_relay = 2·max(0, N − RelayProfit)·δ          (Eq. 2)
//     t_path  = N·δ / (PathProfit + 1)               (Eq. 3)
//     backoff = t_relay + t_path + U(0, δ)     if group member
//     = t_relay + t_path + U(δ, 2δ)    otherwise       (Eq. 4)
//
//     so queries race fastest along paths that connect many still-uncovered
//     multicast receivers, and group members are favoured over extra nodes
//     (Fig. 2). RelayProfit is kept current by overhearing JoinReplys:
//     receivers that have replied are marked covered and no longer count.
//
//  2. The path handover scheme, PHS (§IV.C.4). Nodes that overhear a
//     relayed JoinReply learn the sender is a forwarder; a receiver with a
//     forwarder neighbor stays silent instead of replying, and a node
//     addressed as a JoinReply next hop grafts onto a known forwarder
//     neighbor instead of growing a parallel path — pruning redundant
//     routes (Fig. 4).
//
// The exact sub-expressions of Eqs. 2–3 are partially illegible in the
// available paper text; DESIGN.md §2 records the reconstruction above and
// the properties it preserves.
package core

import (
	"fmt"

	"mtmrp/internal/packet"
	"mtmrp/internal/proto"
	"mtmrp/internal/sim"
)

// Config carries MTMRP's tuning knobs.
type Config struct {
	// N bounds the backoff range and scales both bias terms (paper
	// default: 4; swept 3–6 in Fig. 7–8).
	N int
	// Delta is the time slot unit δ (paper default: 1 ms; swept 1–30 ms).
	Delta sim.Time
	// PHS enables the path handover scheme. The paper's "MTMRP w/o PHS"
	// baseline is exactly PHS=false.
	PHS bool
	// DisableRelayBias zeroes t_relay (Eq. 2), ablating the
	// RelayProfit component of the biased backoff.
	DisableRelayBias bool
	// DisablePathBias zeroes t_path (Eq. 3), ablating the PathProfit
	// component.
	DisablePathBias bool
	// DisableMemberBias removes the member-vs-extra-node random-term
	// separation of Eq. 4 (both draw U(0, δ)).
	DisableMemberBias bool
	// Proto carries the shared timing configuration.
	Proto proto.Config
}

// DefaultConfig returns the paper's defaults (N=4, δ=1 ms, PHS on).
func DefaultConfig() Config {
	return Config{N: 4, Delta: sim.Millisecond, PHS: true, Proto: proto.DefaultConfig()}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("core: N must be >= 1, got %d", c.N)
	}
	if c.Delta <= 0 {
		return fmt.Errorf("core: Delta must be positive, got %v", c.Delta)
	}
	return nil
}

// Router is an MTMRP instance for one node.
type Router struct {
	*proto.Base
	cfg Config
}

// New builds an MTMRP router. It panics on invalid configuration (protocol
// construction is static setup, not runtime input).
func New(cfg Config) *Router {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := &Router{cfg: cfg}
	name := "MTMRP"
	if !cfg.PHS {
		name = "MTMRP-noPHS"
	}
	hooks := proto.Hooks{
		QueryDelay:    r.queryDelay,
		OutPathProfit: r.outPathProfit,
		Overhear:      true,
	}
	if cfg.PHS {
		hooks.SuppressReply = r.phsActive
		hooks.GraftOnReply = r.phsActive
	}
	r.Base = proto.NewBase(name, cfg.Proto, hooks)
	return r
}

// Config returns the router's configuration.
func (r *Router) Config() Config { return r.cfg }

// SetBackoff retunes the biased-backoff knobs in place; the session pool
// uses it when reusing a router across runs with different (N, δ) cells.
func (r *Router) SetBackoff(n int, delta sim.Time) {
	r.cfg.N = n
	r.cfg.Delta = delta
}

// queryDelay implements Eqs. 2–4.
func (r *Router) queryDelay(b *proto.Base, q packet.JoinQuery, from packet.NodeID) sim.Time {
	key := q.Key()
	rp := b.RelayProfit(key)
	pp := int(q.PathProfit)
	n := r.cfg.N
	d := r.cfg.Delta

	short := n - rp
	if short < 0 {
		short = 0
	}
	tRelay := sim.Time(2*short) * d
	if r.cfg.DisableRelayBias {
		tRelay = 0
	}
	tPath := sim.Time(n) * d / sim.Time(pp+1)
	if r.cfg.DisablePathBias {
		tPath = 0
	}

	var random sim.Time
	if r.cfg.DisableMemberBias || b.Node().InGroup(key.Group) {
		random = b.Uniform(0, d)
	} else {
		random = b.Uniform(d, 2*d)
	}
	return tRelay + tPath + random
}

// outPathProfit updates the flood's PathProfit with this node's fresh
// RelayProfit (Definition 2: PathProfit is the sum of the RelayProfits
// along the path, excluding the next hop's own).
func (r *Router) outPathProfit(b *proto.Base, q packet.JoinQuery) int32 {
	rp := b.RelayProfit(q.Key())
	return q.PathProfit + int32(rp)
}

// phsActive gates both PHS behaviours (receiver silence and grafting): a
// forwarder among the neighbors already provides a route to the source.
//
// The anchor must be strictly closer to the source (hop-monotone
// handover). The paper's Algorithm 2 checks only "is there a forwarder
// among my neighbors", which admits mutual handovers that disconnect the
// tree — two nodes can each stay silent/graft on the strength of the
// other's forwarder flag, leaving neither with an upstream supply of
// data. Requiring an uphill anchor provably breaks such cycles while
// keeping the pruning benefit (the useful anchors are uphill anyway).
func (r *Router) phsActive(b *proto.Base, key packet.FloodKey) bool {
	return b.HasUphillForwarder(key)
}

var _ proto.Router = (*Router)(nil)
