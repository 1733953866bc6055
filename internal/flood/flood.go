// Package flood implements the naive flooding baseline from the paper's
// introduction: every node rebroadcasts each data packet exactly once, so
// delivery needs no route discovery but costs on the order of N
// transmissions. It exists as the upper-bound comparator and to exercise
// the channel under worst-case load.
package flood

import (
	"mtmrp/internal/bitset"
	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
)

// Config tunes the flooding baseline.
type Config struct {
	// Jitter is the uniform delay before a node rebroadcasts, to
	// de-synchronise the broadcast storm. Defaults to 2 ms.
	Jitter sim.Time
}

// DefaultConfig returns the baseline configuration.
func DefaultConfig() Config { return Config{Jitter: 2 * sim.Millisecond} }

// session is the per-session state: a duplicate-suppression bitset indexed
// by DataSeq and the delivery counter. Sessions are few per run, held in a
// linearly-scanned slice and recycled across Reset.
type session struct {
	key     packet.FloodKey
	got     int
	dataSeq uint32
	seen    bitset.Set
}

// pending carries a delayed rebroadcast through the scheduler without a
// closure; blocks recycle through a free list.
type pending struct {
	r *Router
	d packet.Data
}

// Router floods every data packet once. It ignores HELLO/JoinQuery/
// JoinReply traffic and satisfies proto.Router trivially: FloodQuery is a
// no-op that just allocates the session key (flooding needs no
// discovery), and every node acts as a forwarder.
type Router struct {
	cfg      Config
	node     *network.Node
	rnd      *rng.RNG
	sessions []*session
	sessFree []*session
	pendFree []*pending
	nextSeq  uint32
}

// New builds a flooding router.
func New(cfg Config) *Router {
	if cfg.Jitter <= 0 {
		cfg.Jitter = 2 * sim.Millisecond
	}
	return &Router{cfg: cfg}
}

// Attach implements network.Protocol.
func (r *Router) Attach(n *network.Node) {
	r.node = n
	r.rnd = n.Rand.Derive("flood")
}

// Start implements network.Protocol. Flooding needs no initialization.
func (r *Router) Start() {}

// Reset implements proto.Router: rewind to the just-attached state,
// recycling session blocks and re-deriving the RNG from the node's
// (already reseeded) stream.
func (r *Router) Reset() {
	r.node.Rand.DeriveInto("flood", r.rnd)
	r.sessFree = append(r.sessFree, r.sessions...)
	for i := range r.sessions {
		r.sessions[i] = nil
	}
	r.sessions = r.sessions[:0]
	r.nextSeq = 0
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
	s.seen.Reset()
	r.sessions = append(r.sessions, s)
	return s
}

// Receive implements network.Protocol.
func (r *Router) Receive(p *packet.Packet) {
	if p.Type != packet.TData {
		return
	}
	d := *p.Data
	s := r.ensureSess(d.Key())
	if s.seen.Test(int(d.DataSeq)) {
		return
	}
	s.seen.Set(int(d.DataSeq))
	s.got++
	delay := sim.Time(r.rnd.Uint64n(uint64(r.cfg.Jitter)))
	var pd *pending
	if n := len(r.pendFree); n > 0 {
		pd = r.pendFree[n-1]
		r.pendFree = r.pendFree[:n-1]
	} else {
		pd = &pending{r: r}
	}
	pd.d = d
	r.node.AfterCall(delay, rebroadcastCB, pd, 0)
}

// rebroadcastCB fires the jittered rebroadcast; it checks node liveness
// itself (AfterCall callbacks are not wrapped like After closures).
func rebroadcastCB(arg any, _ int) {
	pd := arg.(*pending)
	r, d := pd.r, pd.d
	pd.d = packet.Data{}
	r.pendFree = append(r.pendFree, pd)
	if r.node.Down() {
		return
	}
	r.node.Send(r.node.Packets().NewData(r.node.ID, d))
}

// FloodQuery implements proto.Router; flooding has no discovery phase.
func (r *Router) FloodQuery(g packet.GroupID) packet.FloodKey {
	r.nextSeq++
	return packet.FloodKey{Source: r.node.ID, Group: g, Seq: r.nextSeq}
}

// SendData implements proto.Router.
func (r *Router) SendData(key packet.FloodKey, payloadLen int) {
	s := r.ensureSess(key)
	s.dataSeq++
	d := packet.Data{
		SourceID:   key.Source,
		GroupID:    key.Group,
		SequenceNo: key.Seq,
		DataSeq:    s.dataSeq,
		PayloadLen: payloadLen,
	}
	s.seen.Set(int(d.DataSeq))
	s.got++
	r.node.Send(r.node.Packets().NewData(r.node.ID, d))
}

// GotData reports whether any of the session's data packets reached this
// node.
func (r *Router) GotData(key packet.FloodKey) bool {
	s := r.sess(key)
	return s != nil && s.got > 0
}
