// Package odmrp implements the ODMRP baseline (Lee, Su & Gerla, "On-demand
// multicast routing protocol in multihop wireless mobile networks") in the
// single-session form the paper compares against: JoinQuery flooding with
// plain broadcast jitter, JoinReplys returning along reverse shortest-delay
// paths, and the union of those reverse paths forming the forwarding group.
//
// ODMRP has no destination bias, no coverage tracking and no overhearing:
// a node's upstream is simply whichever neighbor's JoinQuery copy won the
// race, so the forwarding group is larger than MTMRP's — the gap the
// paper's Figures 5–6 quantify.
package odmrp

import (
	"mtmrp/internal/packet"
	"mtmrp/internal/proto"
	"mtmrp/internal/sim"
)

// Config carries ODMRP's tuning knobs.
type Config struct {
	// Jitter is the uniform broadcast jitter applied before rebroadcasting
	// a JoinQuery; standard ODMRP implementations add it to de-synchronise
	// the flood. Defaults to 1 ms.
	Jitter sim.Time
	// Proto carries the shared timing configuration.
	Proto proto.Config
}

// DefaultConfig returns the baseline configuration.
func DefaultConfig() Config {
	return Config{Jitter: sim.Millisecond, Proto: proto.DefaultConfig()}
}

// Router is an ODMRP instance for one node.
type Router struct {
	proto.Base
	cfg Config
}

// New builds an ODMRP router.
func New(cfg Config) *Router {
	if cfg.Jitter <= 0 {
		cfg.Jitter = sim.Millisecond
	}
	r := &Router{cfg: cfg}
	r.Init("ODMRP", cfg.Proto, proto.Hooks{
		QueryDelay: r.queryDelay,
	})
	return r
}

// Config returns the router's configuration.
func (r *Router) Config() Config { return r.cfg }

// SetBackoff retunes the backoff in place for session reuse; ODMRP has no
// N term, so only the jitter width (the sweep's δ) applies.
func (r *Router) SetBackoff(_ int, delta sim.Time) {
	if delta > 0 {
		r.cfg.Jitter = delta
	}
}

func (r *Router) queryDelay(b *proto.Base, q packet.JoinQuery, from packet.NodeID) sim.Time {
	return b.Uniform(0, r.cfg.Jitter)
}

var _ proto.Router = (*Router)(nil)
