// Package dodmrp implements the DODMRP baseline (Tian et al.,
// "Destination-driven on-demand multicast routing protocol for wireless ad
// hoc networks", ICC 2009): ODMRP extended with a destination-driven biased
// backoff that favours paths running through multicast group members, so
// fewer non-member "extra nodes" end up in the forwarding group.
//
// Unlike MTMRP, DODMRP counts all group-member neighbors — it does not
// track which receivers are already covered by other forwarders, carries no
// PathProfit, and has no path handover scheme. The paper's §V shows this is
// exactly why reducing extra nodes does not necessarily reduce transmission
// cost.
package dodmrp

import (
	"fmt"

	"mtmrp/internal/packet"
	"mtmrp/internal/proto"
	"mtmrp/internal/sim"
)

// Config carries DODMRP's tuning knobs; N and Delta mirror the parameters
// swept in the paper's Figures 7–8 (DODMRP responds to them too).
type Config struct {
	// N bounds the backoff range (default 4).
	N int
	// Delta is the time slot unit δ (default 1 ms).
	Delta sim.Time
	// Proto carries the shared timing configuration.
	Proto proto.Config
}

// DefaultConfig returns the paper's defaults (N=4, δ=1 ms).
func DefaultConfig() Config {
	return Config{N: 4, Delta: sim.Millisecond, Proto: proto.DefaultConfig()}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("dodmrp: N must be >= 1, got %d", c.N)
	}
	if c.Delta <= 0 {
		return fmt.Errorf("dodmrp: Delta must be positive, got %v", c.Delta)
	}
	return nil
}

// Router is a DODMRP instance for one node.
type Router struct {
	*proto.Base
	cfg Config
}

// New builds a DODMRP router. It panics on invalid configuration.
func New(cfg Config) *Router {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := &Router{cfg: cfg}
	r.Base = proto.NewBase("DODMRP", cfg.Proto, proto.Hooks{
		QueryDelay: r.queryDelay,
	})
	return r
}

// SetBackoff retunes the destination-driven backoff knobs in place; the
// session pool uses it when reusing a router across (N, δ) cells.
func (r *Router) SetBackoff(n int, delta sim.Time) {
	r.cfg.N = n
	r.cfg.Delta = delta
}

// queryDelay biases the flood toward member-dense neighborhoods: nodes
// with more group-member neighbors, and group members themselves, forward
// earlier.
func (r *Router) queryDelay(b *proto.Base, q packet.JoinQuery, from packet.NodeID) sim.Time {
	key := q.Key()
	m := b.NT.MemberCount(key.Group, key.Source)
	short := r.cfg.N - m
	if short < 0 {
		short = 0
	}
	tRelay := sim.Time(2*short) * r.cfg.Delta
	var random sim.Time
	if b.Node().InGroup(key.Group) {
		random = b.Uniform(0, r.cfg.Delta)
	} else {
		random = b.Uniform(r.cfg.Delta, 2*r.cfg.Delta)
	}
	return tRelay + random
}

var _ proto.Router = (*Router)(nil)
