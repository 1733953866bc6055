// Package gmr implements a geographic multicast routing baseline in the
// style of GMR (Sanchez, Ruiz & Stojmenovic, SECON'06), the stateless
// family the paper's related work (§II) contrasts with tree-based
// protocols: "the geographic multicast routing can remove the need for
// state maintenance ... under the assumption that each node knows its own
// geographical location and the source node knows the locations of all
// the multicast receivers."
//
// Operation is entirely per-packet: the data header carries, for each
// selected neighbor, the subset of destinations that neighbor is
// responsible for. At every hop the holder solves the splitting decision
// the paper calls "the most challenging problem" of this family — which
// destinations to delegate to which neighbor — with GMR's greedy rule:
// each destination goes to the neighbor geographically closest to it
// (restricted to neighbors that make forward progress), and neighbors
// sharing destinations are merged into one broadcast frame.
//
// There is no HELLO/JoinQuery/JoinReply machinery and no per-session
// state; the price is a per-packet header that grows with the group size
// and a transmission count that cannot exploit overheard coverage.
package gmr

import (
	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/sparse"
)

// Config tunes the baseline.
type Config struct {
	// Jitter de-synchronises forwarding broadcasts (default 1 ms).
	Jitter sim.Time
	// TTL bounds the per-packet hop budget (default 64); greedy
	// geographic routing can loop around voids, and TTL converts a loop
	// into a bounded loss.
	TTL int32
}

// DefaultConfig returns the baseline configuration.
func DefaultConfig() Config {
	return Config{Jitter: sim.Millisecond, TTL: 64}
}

// session holds the per-session state: the delivery counter and the
// handled set — destination d of packet seq is the key seq*N+d, so the
// "each destination processed at most once per packet" bookkeeping is one
// open-addressing set that resets in place. The keys touched are the
// destinations actually delegated through this node, so the set stays
// proportional to packets · group size — as a bitset over seq*N+d it
// retained O(n) bits per packet, the network-size term none of the other
// per-node state carries anymore.
type session struct {
	key     packet.FloodKey
	got     int
	dataSeq uint32
	handled sparse.Set
}

// pending carries a prebuilt forwarding frame through the jitter delay
// without a closure. The frame is built at receive time (the split scratch
// is reused by the next Receive, so it cannot be captured).
type pending struct {
	r   *Router
	out *packet.Packet
}

// pair is one (selected next hop, destination) delegation from split.
type pair struct {
	next, dest packet.NodeID
}

// Router is a GMR instance for one node. Positions come from the network
// topology — the standing location-awareness assumption of geographic
// routing.
type Router struct {
	cfg      Config
	node     *network.Node
	rnd      *rng.RNG
	n        int // network size, fixed at Attach
	sessions []*session
	sessFree []*session
	pendFree []*pending
	nextSeq  uint32
	dests    []packet.NodeID // the source's destination list

	// split/Receive scratch, reused across calls (frames deep-copy it).
	pairs     []pair
	order     []packet.NodeID
	assign    []packet.GeoAssign
	remaining []packet.NodeID
}

// New builds a GMR router.
func New(cfg Config) *Router {
	if cfg.Jitter <= 0 {
		cfg.Jitter = sim.Millisecond
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 64
	}
	return &Router{cfg: cfg}
}

// Attach implements network.Protocol.
func (r *Router) Attach(n *network.Node) {
	r.node = n
	r.n = len(n.Net().Nodes)
	r.rnd = n.Rand.Derive("gmr")
}

// Start implements network.Protocol. Stateless: nothing to bootstrap.
func (r *Router) Start() {}

// Reset implements proto.Router: rewind to the just-attached state,
// recycling session blocks and re-deriving the RNG from the node's
// (already reseeded) stream. The destination list is cleared; the harness
// re-installs it via SetDestinations.
func (r *Router) Reset() {
	r.node.Rand.DeriveInto("gmr", r.rnd)
	r.sessFree = append(r.sessFree, r.sessions...)
	for i := range r.sessions {
		r.sessions[i] = nil
	}
	r.sessions = r.sessions[:0]
	r.nextSeq = 0
	r.dests = r.dests[:0]
}

func (r *Router) sess(key packet.FloodKey) *session {
	for _, s := range r.sessions {
		if s.key == key {
			return s
		}
	}
	return nil
}

func (r *Router) ensureSess(key packet.FloodKey) *session {
	if s := r.sess(key); s != nil {
		return s
	}
	var s *session
	if n := len(r.sessFree); n > 0 {
		s = r.sessFree[n-1]
		r.sessFree = r.sessFree[:n-1]
	} else {
		s = &session{}
	}
	s.key = key
	s.got = 0
	s.dataSeq = 0
	s.handled.Reset()
	r.sessions = append(r.sessions, s)
	return s
}

// SetDestinations installs the multicast receiver list at the source (the
// paper's assumption that the source knows all receiver locations).
func (r *Router) SetDestinations(dests []packet.NodeID) {
	r.dests = append(r.dests[:0], dests...)
}

// FloodQuery implements proto.Router; geographic multicast has no
// discovery phase, so this only allocates a session key.
func (r *Router) FloodQuery(g packet.GroupID) packet.FloodKey {
	r.nextSeq++
	return packet.FloodKey{Source: r.node.ID, Group: g, Seq: r.nextSeq}
}

// SendData implements proto.Router: split the destination set and
// broadcast the first hop.
func (r *Router) SendData(key packet.FloodKey, payloadLen int) {
	s := r.ensureSess(key)
	s.dataSeq++
	g := packet.GeoData{
		SourceID:   key.Source,
		GroupID:    key.Group,
		SequenceNo: key.Seq,
		DataSeq:    s.dataSeq,
		PayloadLen: payloadLen,
		TTL:        r.cfg.TTL,
	}
	s.got++
	g.Assign = r.split(r.dests)
	if len(g.Assign) == 0 {
		return // every destination is the source itself
	}
	r.node.Send(r.node.Packets().NewGeoData(r.node.ID, g))
}

// Receive implements network.Protocol.
func (r *Router) Receive(p *packet.Packet) {
	if p.Type != packet.TGeoData {
		return
	}
	g := *p.Geo
	key := g.Key()
	mine := g.DestsFor(r.node.ID)
	if mine == nil {
		return // overheard a frame addressed to other branches
	}
	// Two upstream holders may both delegate through this node; process
	// each destination of the packet at most once.
	s := r.ensureSess(key)
	base := uint64(g.DataSeq) * uint64(r.n)
	r.remaining = r.remaining[:0]
	for _, d := range mine {
		if !s.handled.Add(base + uint64(uint32(d))) {
			continue
		}
		if d == r.node.ID {
			s.got++
		} else {
			r.remaining = append(r.remaining, d)
		}
	}
	if len(r.remaining) == 0 || g.TTL <= 1 {
		return
	}
	out := g
	out.TTL = g.TTL - 1
	out.Assign = r.split(r.remaining)
	if len(out.Assign) == 0 {
		return // stuck in a void: greedy has no forward neighbor
	}
	// Build the frame now (deep-copying the scratch assignment), then hold
	// it through the jitter delay.
	var pd *pending
	if n := len(r.pendFree); n > 0 {
		pd = r.pendFree[n-1]
		r.pendFree = r.pendFree[:n-1]
	} else {
		pd = &pending{r: r}
	}
	pd.out = r.node.Packets().NewGeoData(r.node.ID, out)
	r.node.AfterCall(sim.Time(r.rnd.Uint64n(uint64(r.cfg.Jitter))), geoSendCB, pd, 0)
}

// geoSendCB fires the jittered forwarding broadcast. AfterCall callbacks
// are not wrapped like After closures, but Send itself drops (and
// recycles) the frame of a node that has failed since.
func geoSendCB(arg any, _ int) {
	pd := arg.(*pending)
	r, out := pd.r, pd.out
	pd.out = nil
	r.pendFree = append(r.pendFree, pd)
	r.node.Send(out)
}

// split partitions destinations among neighbors: each destination is
// delegated to the neighbor closest to it, provided that neighbor is
// strictly closer to the destination than this node (greedy progress).
// Destinations that happen to be direct neighbors are delegated to
// themselves — the broadcast reaches them in the same frame.
//
// The returned slice (including the per-branch destination lists) is
// router-owned scratch, valid until the next split call; both callers
// immediately deep-copy it into a frame. Branches are ordered by
// ascending next-hop id, destinations within a branch in input order.
func (r *Router) split(dests []packet.NodeID) []packet.GeoAssign {
	topo := r.node.Net().Topo
	self := topo.Positions[r.node.Pos]
	neighbors := topo.Neighbors(r.node.Pos)

	r.pairs = r.pairs[:0]
	r.order = r.order[:0]
	for _, d := range dests {
		if d == r.node.ID {
			continue
		}
		dp := topo.Positions[int(d)]
		best := packet.NoNode
		bestDist := self.Dist(dp) // progress constraint: beat own distance
		for _, nb := range neighbors {
			nd := topo.Positions[nb].Dist(dp)
			if nd < bestDist {
				bestDist = nd
				best = packet.NodeID(nb)
			}
		}
		if best == packet.NoNode {
			continue // void: drop this destination (bounded by TTL anyway)
		}
		r.pairs = append(r.pairs, pair{next: best, dest: d})
	}
	// Distinct next hops in ascending order (sorted-insert; branches are few).
	for _, pr := range r.pairs {
		pos := len(r.order)
		dup := false
		for i, x := range r.order {
			if x == pr.next {
				dup = true
				break
			}
			if x > pr.next {
				pos = i
				break
			}
		}
		if dup {
			continue
		}
		r.order = append(r.order, 0)
		copy(r.order[pos+1:], r.order[pos:])
		r.order[pos] = pr.next
	}
	assign := r.assign[:0]
	for _, next := range r.order {
		n := len(assign)
		var ds []packet.NodeID
		// Reuse the per-branch storage left from the previous split, if any
		// (slots past len(assign) still hold it).
		if n < cap(assign) {
			ds = assign[:n+1][n].Dests[:0]
		}
		for _, pr := range r.pairs {
			if pr.next == next {
				ds = append(ds, pr.dest)
			}
		}
		assign = append(assign, packet.GeoAssign{Next: next, Dests: ds})
	}
	r.assign = assign
	return assign
}

// GotData reports whether any of the session's data packets reached this
// node.
func (r *Router) GotData(key packet.FloodKey) bool { return r.DataReceived(key) > 0 }

// DataReceived reports packets delivered to this node for the session.
func (r *Router) DataReceived(key packet.FloodKey) int {
	s := r.sess(key)
	if s == nil {
		return 0
	}
	return s.got
}
