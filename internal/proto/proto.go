// Package proto implements the on-demand multicast machinery shared by
// every distributed protocol in this repository (ODMRP, DODMRP, MTMRP and
// its no-PHS ablation): HELLO beaconing into neighbor tables, JoinQuery
// flooding with duplicate suppression and reverse-path learning, JoinReply
// propagation that sets forwarding-group flags, and tree-based data
// forwarding.
//
// Protocol-specific behaviour — the paper's biased backoff (Eqs. 2–4), the
// destination-driven bias of DODMRP, and MTMRP's path handover scheme — is
// injected through the Hooks struct, so each protocol package contains
// exactly its distinguishing policy and nothing else. The paper itself
// notes MTMRP "can serve as a general architectural extension to those
// on-demand routing protocols where the route discovery process is
// performed"; Hooks is that extension surface.
package proto

import (
	"fmt"
	"slices"

	"mtmrp/internal/bitset"
	"mtmrp/internal/neighbor"
	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/sparse"
)

// Config carries the timing shared by all protocols.
type Config struct {
	HelloInterval sim.Time // beacon period during initialization
	HelloRounds   int      // beacons per node (finite so runs quiesce)
	HelloJitter   sim.Time // uniform jitter on each beacon
	ReplyJitter   sim.Time // delay before a receiver originates a JoinReply
	RelayJitter   sim.Time // delay before a forwarder relays a JoinReply
	DataJitter    sim.Time // delay before a forwarder relays DATA

	// MinHelloCount gates route learning on link quality: a JoinQuery is
	// accepted for reverse-path learning only from senders heard in at
	// least this many HELLOs (a bidirectional-link check). Under fading,
	// an occasional lucky decode from a marginal link would otherwise
	// become the upstream — and the JoinReply back over it would be lost.
	// <= 0 disables the gate.
	MinHelloCount int

	// FGLifetime soft-states the forwarding-group flag, ODMRP's
	// FORWARDING_GROUP_TIMEOUT: a flag not refreshed by a JoinReply within
	// the lifetime silently expires, so forwarders orphaned by node
	// failures stop relaying instead of serving a stale tree forever. 0
	// (the default) keeps flags for the whole run — the paper's static
	// evaluation, and what every golden experiment pins.
	FGLifetime sim.Time
}

// DefaultConfig returns the timings used by the experiments.
func DefaultConfig() Config {
	return Config{
		HelloInterval: 500 * sim.Millisecond,
		HelloRounds:   3,
		HelloJitter:   100 * sim.Millisecond,
		ReplyJitter:   4 * sim.Millisecond,
		RelayJitter:   2 * sim.Millisecond,
		DataJitter:    2 * sim.Millisecond,
		MinHelloCount: 2,
	}
}

// Hooks is the policy surface that differentiates protocols.
type Hooks struct {
	// QueryDelay returns the routing-layer backoff before rebroadcasting a
	// received JoinQuery (the biased backoff scheme lives here).
	QueryDelay func(b *Base, q packet.JoinQuery, from packet.NodeID) sim.Time
	// OutPathProfit computes the PathProfit field of the rebroadcast
	// JoinQuery. Nil leaves the field unchanged (non-MTMRP protocols).
	OutPathProfit func(b *Base, q packet.JoinQuery) int32
	// SuppressReply reports whether a covered receiver should stay silent
	// instead of originating a JoinReply (MTMRP's PHS, Algorithm 1 l.4-5).
	SuppressReply func(b *Base, key packet.FloodKey) bool
	// GraftOnReply reports whether a JoinReply next hop should mark itself
	// forwarder and drop instead of relaying (PHS, Algorithm 2 l.4-6).
	GraftOnReply func(b *Base, key packet.FloodKey) bool
	// Overhear enables covered-receiver / known-forwarder marking from
	// overheard JoinReplys (MTMRP; Algorithm 2 l.19-23).
	Overhear bool
}

// Route is the reverse-path state learned from the first JoinQuery copy.
type Route struct {
	Upstream   packet.NodeID
	HopCount   int32
	PathProfit int32
}

// sessState is the flat per-session state block. A node participates in a
// handful of sessions per run (one per discovery flood), so sessions live
// in a small linearly-scanned slice instead of the half-dozen per-key maps
// this package used to carry; nodes are dense indices, so the per-node
// tables inside are plain slices and word-packed bitsets. Blocks are
// recycled through a free list across Reset, so a reused node allocates
// nothing once warm.
type sessState struct {
	key         packet.FloodKey
	route       Route
	hasRoute    bool
	fg          bool     // forwarding-group flag
	fgAt        sim.Time // when fg was last set/refreshed (soft state)
	coveredSelf bool     // this receiver is covered
	gotData     int      // data packets received
	dataSeq     uint32

	seenData bitset.Set // bit = DataSeq: duplicate suppression
	seenJR   sparse.Set // key = receiver id: JoinReply relay dedup

	// repliesHeard, at the source, tracks distinct receivers whose
	// JoinReply made it all the way back (key = receiver id).
	repliesHeard sparse.Set
	repliesCount int

	// The per-neighbour state below is indexed by the neighbour's position
	// in NT. Positions are stable for the session: the table is frozen
	// once the node has a session (onHello rejects a new id), and a sender
	// without a table entry records nothing. Storage is kept when the
	// block is recycled.
	//
	// nbrHop records each neighbor's hop distance to the source, learned
	// from its JoinQuery rebroadcast (every copy carries the sender's hop
	// count). The path handover scheme uses it to anchor only onto
	// forwarders strictly closer to the source — without that condition,
	// two nodes can hand their paths over to each other and strand every
	// receiver below them (Algorithm 2 as written admits such cycles). It
	// holds hop+1, 0 meaning unknown, and is sized to the table on the
	// session's first write.
	nbrHop []int32
	// covered and forwarder are Definition 1's overhearing marks: a
	// neighbour heard originating its JoinReply is a covered receiver,
	// one heard relaying a JoinReply is a known forwarder (Algorithm 2,
	// lines 19-23).
	covered   bitset.Set
	forwarder bitset.Set
}

// clear rewinds a (possibly recycled) block for a new session. All
// storage is keyed by what the session actually touched (density, group
// size, packet count), so the rewind cost is proportional to that too —
// never to the network size.
func (s *sessState) clear(key packet.FloodKey) {
	s.key = key
	s.route = Route{}
	s.hasRoute = false
	s.fg = false
	s.fgAt = 0
	s.coveredSelf = false
	s.gotData = 0
	s.dataSeq = 0
	s.seenData.Reset()
	s.seenJR.Reset()
	s.repliesHeard.Reset()
	s.repliesCount = 0
	s.nbrHop = s.nbrHop[:0]
	s.covered.Reset()
	s.forwarder.Reset()
}

// noteHop records that neighbor from rebroadcast the session's JoinQuery
// at hop distance hop, keeping the smallest distance heard.
func (b *Base) noteHop(s *sessState, from packet.NodeID, hop int32) {
	i := b.NT.Index(from)
	if i < 0 {
		return
	}
	if i >= len(s.nbrHop) {
		// Storage past len may hold an earlier session's values.
		n := len(s.nbrHop)
		s.nbrHop = slices.Grow(s.nbrHop, b.NT.Len()-n)[:b.NT.Len()]
		clear(s.nbrHop[n:])
	}
	if h := s.nbrHop[i]; h == 0 || hop+1 < h {
		s.nbrHop[i] = hop + 1
	}
}

// hop returns the hop distance recorded for the neighbor at table
// position i (-1 for none), and whether one was recorded.
func (s *sessState) hop(i int) (int32, bool) {
	if i < 0 || i >= len(s.nbrHop) || s.nbrHop[i] == 0 {
		return 0, false
	}
	return s.nbrHop[i] - 1, true
}

// overhear records what an overheard JoinReply says about the neighbour
// at table position i: a relayed reply marks it a known forwarder, an
// originated one a covered receiver.
func (b *Base) overhear(key packet.FloodKey, i int, relayed bool) {
	s := b.ensureSess(key)
	id := b.NT.At(i).ID
	if relayed {
		s.forwarder.Set(i)
		if b.ref != nil {
			b.ref.MarkForwarder(id, key)
		}
	} else {
		s.covered.Set(i)
		if b.ref != nil {
			b.ref.MarkCovered(id, key)
		}
	}
}

// coveredAt and forwarderAt read the marks of the neighbour at table
// position i; s may be nil (no session, no marks).
func (b *Base) coveredAt(s *sessState, key packet.FloodKey, i int) bool {
	got := s != nil && s.covered.Test(i)
	if b.ref != nil {
		id := b.NT.At(i).ID
		b.ref.check("covered", id, key, got, b.ref.Covered(id, key))
	}
	return got
}

func (b *Base) forwarderAt(s *sessState, key packet.FloodKey, i int) bool {
	got := s != nil && s.forwarder.Test(i)
	if b.ref != nil {
		id := b.NT.At(i).ID
		b.ref.check("forwarder", id, key, got, b.ref.Forwarder(id, key))
	}
	return got
}

// pending carries the arguments of a deferred protocol action (jittered
// rebroadcast, reply, relay) through the scheduler without a closure.
// Blocks come from a per-node free list; the callback returns its block
// before acting, so a stable population covers steady-state traffic.
type pending struct {
	b   *Base
	key packet.FloodKey
	q   packet.JoinQuery
	up  packet.NodeID
	rcv packet.NodeID
	d   packet.Data
}

// Base holds per-node protocol state and implements network.Protocol.
// Concrete protocols wrap it with their Hooks.
type Base struct {
	node  *network.Node
	cfg   Config
	hooks Hooks
	name  string
	rnd   *rng.RNG

	// NT is the one-hop neighbor table (exported for policy hooks).
	NT *neighbor.Table

	sessions []*sessState
	sessFree []*sessState
	pendFree []*pending

	nextSeq uint32

	// ref, when attached by Shadow, mirrors every mark write into the
	// id-indexed reference and cross-checks every read — the
	// differential-test hook (nil outside tests; one branch per op).
	ref *RefMarks
}

// NewBase constructs the engine for one node. name labels the protocol in
// panics and traces.
func NewBase(name string, cfg Config, hooks Hooks) *Base {
	if hooks.QueryDelay == nil {
		panic("proto: QueryDelay hook is required")
	}
	return &Base{cfg: cfg, hooks: hooks, name: name}
}

// sess returns the state block for key, or nil.
func (b *Base) sess(key packet.FloodKey) *sessState {
	for _, s := range b.sessions {
		if s.key == key {
			return s
		}
	}
	return nil
}

// ensureSess returns the state block for key, creating (or recycling) one.
func (b *Base) ensureSess(key packet.FloodKey) *sessState {
	if s := b.sess(key); s != nil {
		return s
	}
	var s *sessState
	if n := len(b.sessFree); n > 0 {
		s = b.sessFree[n-1]
		b.sessFree = b.sessFree[:n-1]
	} else {
		s = &sessState{}
	}
	s.clear(key)
	b.sessions = append(b.sessions, s)
	return s
}

// newPending takes an argument block from the free list.
func (b *Base) newPending() *pending {
	if n := len(b.pendFree); n > 0 {
		pd := b.pendFree[n-1]
		b.pendFree = b.pendFree[:n-1]
		return pd
	}
	return &pending{b: b}
}

// freePending recycles a block; the caller must have copied out what it
// needs (the block may be reissued by the action it triggers).
func (b *Base) freePending(pd *pending) {
	*pd = pending{b: pd.b}
	b.pendFree = append(b.pendFree, pd)
}

// Reset rewinds the node to its just-attached state for session reuse:
// all per-session state and the neighbor table are emptied in place and
// the protocol RNG is re-derived from the node's (already reseeded)
// stream, exactly as Attach derived it. Pending blocks still referenced
// by the previous simulator are simply dropped (the simulator's Reset
// released them to the GC).
func (b *Base) Reset() {
	if b.node == nil {
		panic(fmt.Sprintf("proto(%s): Reset before Attach", b.name))
	}
	b.node.Rand.DeriveInto("proto", b.rnd)
	b.NT.Reset()
	b.sessFree = append(b.sessFree, b.sessions...)
	for i := range b.sessions {
		b.sessions[i] = nil
	}
	b.sessions = b.sessions[:0]
	b.nextSeq = 0
	if b.ref != nil {
		b.ref.Reset()
	}
}

// AdoptHello gives b the state src reached in the HELLO phase: the
// protocol random stream and the neighbor table. Both nodes must have
// been Reset onto the same seed and topology, and src must not have
// started a discovery yet. The session harness uses it so that rows of
// a paired round, which run the same HELLO phase, simulate it once.
func (b *Base) AdoptHello(src *Base) {
	if len(src.sessions) > 0 || src.nextSeq != 0 {
		panic(fmt.Sprintf("proto(%s): AdoptHello from a node past its HELLO phase", b.name))
	}
	*b.rnd = *src.rnd
	b.NT.CopyFrom(src.NT)
}

// Engine returns b itself. Routers that embed a Base inherit it, which
// lets callers holding a Router reach the shared engine under it.
func (b *Base) Engine() *Base { return b }

// Name returns the protocol label.
func (b *Base) Name() string { return b.name }

// Node returns the node this instance runs on (nil before Attach).
func (b *Base) Node() *network.Node { return b.node }

// NeighborTable returns the node's one-hop neighbor table (nil before
// Attach). The bench module's traced run (bench/trace.go) reads it for
// its neighbor.entries_mean metric through a dynamic assertion that
// TestBaseRoutersExposeNeighborTable (experiment) pins.
func (b *Base) NeighborTable() *neighbor.Table { return b.NT }

// Attach implements network.Protocol.
func (b *Base) Attach(n *network.Node) {
	if b.node != nil {
		panic(fmt.Sprintf("proto(%s): double attach", b.name))
	}
	b.node = n
	b.rnd = n.Rand.Derive("proto")
	b.NT = neighbor.NewTable()
}

// Start implements network.Protocol: it schedules the HELLO rounds of the
// initialization phase (§IV.B).
func (b *Base) Start() {
	for round := 0; round < b.cfg.HelloRounds; round++ {
		at := sim.Time(round)*b.cfg.HelloInterval + b.jitter(b.cfg.HelloJitter)
		b.node.AfterCall(at, helloCB, b, 0)
	}
}

// helloCB is the scheduled form of sendHello. AfterCall callbacks are not
// wrapped in the node's liveness check, so it tests Down itself.
func helloCB(arg any, _ int) {
	b := arg.(*Base)
	if b.node.Down() {
		return
	}
	b.sendHello()
}

func (b *Base) sendHello() {
	b.node.Send(b.node.Packets().NewHello(b.node.ID, b.node.Groups()))
}

// jitter returns U(0, max), or 0 when max is 0.
func (b *Base) jitter(max sim.Time) sim.Time {
	if max <= 0 {
		return 0
	}
	return sim.Time(b.rnd.Uint64n(uint64(max)))
}

// Uniform returns a uniform draw in [lo, hi) of virtual time; protocol
// hooks use it for their randomised backoff terms.
func (b *Base) Uniform(lo, hi sim.Time) sim.Time {
	if hi <= lo {
		return lo
	}
	return lo + sim.Time(b.rnd.Uint64n(uint64(hi-lo)))
}

// Receive implements network.Protocol.
func (b *Base) Receive(p *packet.Packet) {
	switch p.Type {
	case packet.THello:
		b.onHello(p)
	case packet.TJoinQuery:
		b.onJoinQuery(p)
	case packet.TJoinReply:
		b.onJoinReply(p)
	case packet.TData:
		b.onData(p)
	}
}

// onHello learns the sender into the neighbor table. Session state is
// keyed by table position, so once the node has a session a HELLO from a
// new id would shift the positions under it: that panics. HELLO rounds
// are finite and RunHello drains them before discovery, so it never
// happens in a run.
func (b *Base) onHello(p *packet.Packet) {
	if len(b.sessions) > 0 && b.NT.Index(p.From) < 0 {
		panic(fmt.Sprintf("proto(%s): node %d heard a HELLO from new neighbor %d after its first session",
			b.name, b.node.ID, p.From))
	}
	b.NT.Observe(p.From, p.Hello.Groups)
}

// --- Multicast session API (used by the experiment harness) ---

// FloodQuery starts route discovery for group g from this node (the
// multicast source) and returns the session key.
func (b *Base) FloodQuery(g packet.GroupID) packet.FloodKey {
	b.nextSeq++
	q := packet.JoinQuery{
		SourceID:   b.node.ID,
		GroupID:    g,
		SequenceNo: b.nextSeq,
		HopCount:   0,
		PathProfit: 0,
	}
	key := q.Key()
	// Pre-register so the echo of our own flood is a duplicate.
	s := b.ensureSess(key)
	s.route = Route{Upstream: packet.NoNode, HopCount: 0}
	s.hasRoute = true
	b.node.Send(b.node.Packets().NewJoinQuery(b.node.ID, q))
	return key
}

// SendData transmits one data packet down the constructed tree. Only
// meaningful at the session's source. Successive calls with the same key
// send successive packets of the session (distinct DataSeq), all forwarded
// by the same tree.
func (b *Base) SendData(key packet.FloodKey, payloadLen int) {
	s := b.ensureSess(key)
	s.dataSeq++
	d := packet.Data{
		SourceID:   key.Source,
		GroupID:    key.Group,
		SequenceNo: key.Seq,
		DataSeq:    s.dataSeq,
		PayloadLen: payloadLen,
	}
	s.seenData.Set(int(d.DataSeq))
	s.gotData++
	b.node.Send(b.node.Packets().NewData(b.node.ID, d))
}

// IsForwarder reports whether this node holds a live FG flag for the
// session (an expired soft-state flag no longer counts).
func (b *Base) IsForwarder(key packet.FloodKey) bool {
	s := b.sess(key)
	return s != nil && b.fgActive(s)
}

// SetFGLifetime retunes the soft-state forwarder lifetime (0 = flags never
// expire). The session harness applies scenario traffic options through
// this after construction and after every Reset.
func (b *Base) SetFGLifetime(d sim.Time) { b.cfg.FGLifetime = d }

// markForwarder sets the FG flag and stamps the soft-state clock.
func (b *Base) markForwarder(s *sessState) {
	s.fg = true
	s.fgAt = b.node.Now()
}

// fgActive reports whether the session's FG flag is set and, under a
// soft-state lifetime, still fresh.
func (b *Base) fgActive(s *sessState) bool {
	if !s.fg {
		return false
	}
	return b.cfg.FGLifetime <= 0 || b.node.Now()-s.fgAt <= b.cfg.FGLifetime
}

// Covered reports whether this receiver marked itself covered.
func (b *Base) Covered(key packet.FloodKey) bool {
	s := b.sess(key)
	return s != nil && s.coveredSelf
}

// GotData reports whether any of the session's data packets reached this
// node.
func (b *Base) GotData(key packet.FloodKey) bool { return b.DataReceived(key) > 0 }

// DataReceived returns how many distinct data packets of the session this
// node received.
func (b *Base) DataReceived(key packet.FloodKey) int {
	s := b.sess(key)
	if s == nil {
		return 0
	}
	return s.gotData
}

// RouteFor returns the learned reverse-path entry, or nil.
func (b *Base) RouteFor(key packet.FloodKey) *Route {
	s := b.sess(key)
	if s == nil || !s.hasRoute {
		return nil
	}
	return &s.route
}

// RepliesHeard returns, at the source, the number of distinct receivers
// whose JoinReply completed the reverse path.
func (b *Base) RepliesHeard(key packet.FloodKey) int {
	s := b.sess(key)
	if s == nil {
		return 0
	}
	return s.repliesCount
}

// HasUphillForwarder reports whether some neighbor is a known forwarder
// for the session AND strictly closer to the source than this node. This
// is the safe precondition for the path handover scheme: anchoring only
// onto uphill forwarders makes handover chains strictly decreasing in hop
// count, so they always terminate at a source-adjacent forwarder and can
// never form the mutual-handover cycles that strand receivers.
func (b *Base) HasUphillForwarder(key packet.FloodKey) bool {
	s := b.sess(key)
	if s == nil || !s.hasRoute {
		return false
	}
	for i, n := 0, b.NT.Len(); i < n; i++ {
		if !b.forwarderAt(s, key, i) {
			continue
		}
		if h, ok := s.hop(i); ok && h < s.route.HopCount {
			return true
		}
	}
	return false
}

// RelayProfit returns the number of neighbors that are members of the
// session's group and not yet covered, excluding the source (Definition
// 1).
func (b *Base) RelayProfit(key packet.FloodKey) int {
	s := b.sess(key)
	n := 0
	for i, m := 0, b.NT.Len(); i < m; i++ {
		e := b.NT.At(i)
		if e.ID == key.Source {
			continue
		}
		if !b.coveredAt(s, key, i) && e.InGroup(key.Group) {
			n++
		}
	}
	return n
}

// NeighborHop returns the learned hop distance of a neighbor for the
// session, and whether it is known. A JoinQuery from a sender with no
// neighbor-table entry is not recorded, so such a sender reports unknown
// even if its rebroadcast was heard.
func (b *Base) NeighborHop(key packet.FloodKey, id packet.NodeID) (int32, bool) {
	s := b.sess(key)
	if s == nil {
		return 0, false
	}
	return s.hop(b.NT.Index(id))
}

// --- JoinQuery path (§IV.C.1, Algorithm 1) ---

func (b *Base) onJoinQuery(p *packet.Packet) {
	q := *p.JoinQuery
	key := q.Key()
	if b.node.ID == key.Source {
		return // echo of our own flood
	}
	// Every copy — including duplicates — reveals the sender's own hop
	// distance (a node rebroadcasts with HopCount equal to its distance).
	s := b.ensureSess(key)
	b.noteHop(s, p.From, q.HopCount)
	if s.hasRoute {
		return // only the first copy is processed
	}
	if !b.NT.Reliable(p.From, b.cfg.MinHelloCount) {
		// Link-quality gate: do not learn a reverse path over a link that
		// barely delivers beacons; a later copy from a solid neighbor
		// will be accepted instead.
		return
	}
	s.route = Route{
		Upstream:   p.From,
		HopCount:   q.HopCount + 1,
		PathProfit: q.PathProfit,
	}
	s.hasRoute = true

	if b.node.InGroup(key.Group) {
		s.coveredSelf = true
		silent := b.hooks.SuppressReply != nil && b.hooks.SuppressReply(b, key)
		if !silent {
			pd := b.newPending()
			pd.key = key
			b.node.AfterCall(b.jitter(b.cfg.ReplyJitter), replyCB, pd, 0)
		}
	}

	// Biased backoff, then rebroadcast the flood.
	delay := b.hooks.QueryDelay(b, q, p.From)
	if delay < 0 {
		delay = 0
	}
	pd := b.newPending()
	pd.q = q
	b.node.AfterCall(delay, forwardJQCB, pd, 0)
}

// replyCB fires the jittered JoinReply origination of a covered receiver.
func replyCB(arg any, _ int) {
	pd := arg.(*pending)
	b, key := pd.b, pd.key
	b.freePending(pd)
	if b.node.Down() {
		return
	}
	b.originateReply(key)
}

// forwardJQCB fires the backoff-delayed JoinQuery rebroadcast.
func forwardJQCB(arg any, _ int) {
	pd := arg.(*pending)
	b, q := pd.b, pd.q
	b.freePending(pd)
	if b.node.Down() {
		return
	}
	b.forwardJoinQuery(q)
}

func (b *Base) forwardJoinQuery(q packet.JoinQuery) {
	out := q
	out.HopCount = q.HopCount + 1
	if b.hooks.OutPathProfit != nil {
		out.PathProfit = b.hooks.OutPathProfit(b, q)
	}
	b.node.Send(b.node.Packets().NewJoinQuery(b.node.ID, out))
}

func (b *Base) originateReply(key packet.FloodKey) {
	s := b.sess(key)
	if s == nil || !s.hasRoute || s.route.Upstream == packet.NoNode {
		return
	}
	r := packet.JoinReply{
		NexthopID:  s.route.Upstream,
		ReceiverID: b.node.ID,
		SourceID:   key.Source,
		GroupID:    key.Group,
		SequenceNo: key.Seq,
	}
	b.node.Send(b.node.Packets().NewJoinReply(b.node.ID, r))
}

// --- JoinReply path (§IV.C.2, Algorithm 2) ---

func (b *Base) onJoinReply(p *packet.Packet) {
	r := *p.JoinReply
	key := r.Key()

	if r.NexthopID != b.node.ID {
		// Overhearing (Algorithm 2, lines 19-23): "it will update its
		// neighbor table and mark this neighbor as a forwarder". Only
		// established neighbors (known from HELLOs) are marked — under
		// fading channels an occasional frame decodes from far outside
		// the reliable disc, and trusting such a sender as a covering
		// forwarder would poison the path handover scheme.
		if b.hooks.Overhear {
			if i := b.NT.Index(p.From); i >= 0 {
				b.overhear(key, i, r.ReceiverID != r.NodeID)
			}
		}
		return
	}

	// We are the selected next hop.
	if b.node.ID == key.Source {
		s := b.ensureSess(key)
		if s.repliesHeard.Add(uint64(uint32(r.ReceiverID))) {
			s.repliesCount++
		}
		return
	}

	s := b.ensureSess(key)
	if !s.seenJR.Add(uint64(uint32(r.ReceiverID))) {
		return
	}

	// Path handover (Algorithm 2, lines 4-6): a known forwarder neighbor
	// already provides a route toward the source.
	if b.hooks.GraftOnReply != nil && b.hooks.GraftOnReply(b, key) {
		b.markForwarder(s)
		return
	}
	if b.fgActive(s) {
		// Already on the tree; the route exists. The reply still refreshes
		// the soft-state clock, as ODMRP's periodic joins intend.
		s.fgAt = b.node.Now()
		return
	}
	if b.node.InGroup(key.Group) && s.coveredSelf {
		// Covered receiver addressed as next hop: join the tree without
		// relaying (its own JoinReply already built the upstream path).
		b.markForwarder(s)
		return
	}

	// Become a forwarder (or revive an expired flag) and propagate toward
	// the source.
	b.markForwarder(s)
	if !s.hasRoute || s.route.Upstream == packet.NoNode {
		return // no reverse path (stale reply); flag stays set
	}
	pd := b.newPending()
	pd.key = key
	pd.up = s.route.Upstream
	pd.rcv = r.ReceiverID
	b.node.AfterCall(b.jitter(b.cfg.RelayJitter), relayJRCB, pd, 0)
}

// relayJRCB fires the jittered JoinReply relay of a new forwarder.
func relayJRCB(arg any, _ int) {
	pd := arg.(*pending)
	b, key, up, rcv := pd.b, pd.key, pd.up, pd.rcv
	b.freePending(pd)
	if b.node.Down() {
		return
	}
	b.node.Send(b.node.Packets().NewJoinReply(b.node.ID, packet.JoinReply{
		NexthopID:  up,
		ReceiverID: rcv,
		SourceID:   key.Source,
		GroupID:    key.Group,
		SequenceNo: key.Seq,
	}))
}

// --- Data forwarding (§IV.D) ---

func (b *Base) onData(p *packet.Packet) {
	d := *p.Data
	key := d.Key()
	s := b.ensureSess(key)
	if s.seenData.Test(int(d.DataSeq)) {
		return // forward only the first copy of each packet
	}
	s.seenData.Set(int(d.DataSeq))
	s.gotData++
	if !b.fgActive(s) {
		return // not on the tree, or the soft-state flag has expired
	}
	pd := b.newPending()
	pd.d = d
	b.node.AfterCall(b.jitter(b.cfg.DataJitter), relayDataCB, pd, 0)
}

// relayDataCB fires the jittered DATA relay of a forwarding-group node.
func relayDataCB(arg any, _ int) {
	pd := arg.(*pending)
	b, d := pd.b, pd.d
	b.freePending(pd)
	if b.node.Down() {
		return
	}
	b.node.Send(b.node.Packets().NewData(b.node.ID, d))
}

// Router is the interface the experiment harness drives. *Base satisfies
// it, so every protocol built on Base does too.
type Router interface {
	network.Protocol
	FloodQuery(g packet.GroupID) packet.FloodKey
	SendData(key packet.FloodKey, payloadLen int)
	// Reset rewinds the router to its just-attached state so the session
	// pool can reuse a network across Monte-Carlo runs.
	Reset()
}

var _ Router = (*Base)(nil)
