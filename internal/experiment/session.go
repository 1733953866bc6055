package experiment

import (
	"errors"
	"fmt"
	"slices"

	"mtmrp/internal/channel"
	"mtmrp/internal/energy"
	"mtmrp/internal/fault"
	"mtmrp/internal/metrics"
	"mtmrp/internal/mobility"
	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/proto"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/trace"
)

// ErrNoDiscovery is returned by Session.RunData before any discovery
// phase has built a tree to route down.
var ErrNoDiscovery = errors.New("experiment: RunData before RunDiscovery")

// ErrSessionShape is returned by Session.Reset for a scenario of another
// shape than the session was built for (shapeOf, or tracing on or off).
var ErrSessionShape = errors.New("experiment: Reset onto another session shape")

// Session is one simulated multicast session, decomposed into its
// protocol phases. Where Run executes the fixed
// HELLO → discovery → data pipeline in one shot, a Session lets studies
// drive the phases directly and interleave them:
//
//	s, _ := NewSession(sc)
//	s.RunHello()
//	s.RunDiscovery(1)          // initial tree
//	s.RunData(10)              // steady-state traffic
//	s.RunDiscovery(1)          // ODMRP-style refresh
//	s.RunData(10)              // more traffic down the refreshed tree
//	res := s.Metrics()
//
// The amortization and refresh studies are built on this; dynamic
// workloads (node failures between bursts, staggered joins) slot in the
// same way. NewSession is the first Reset of a session; later Resets
// rewind it for another run of its shape. A Session is single-goroutine,
// like the simulator under it.
type Session struct {
	sc      Scenario
	shape   poolKey
	group   packet.GroupID
	net     *network.Network
	routers []proto.Router
	col     *metrics.Collector
	meter   *energy.Meter
	logger  *trace.Logger // nil unless the session is traced

	key        packet.FloodKey
	helloDone  bool
	discovered bool
	// adoptedEvents counts the HELLO events adoptHello took from another
	// session: Processed includes them, but this session did not run them.
	adoptedEvents uint64

	// dyn is the session-owned dynamic link table of mobile runs (nil
	// until the first; static runs share an immutable table); mover drives
	// it along the run's motion plan during the paced data phase.
	dyn   *channel.DynamicLinkTable
	mover *mobility.Mover

	dests []packet.NodeID // SetDestinations scratch, reused across Reset
}

// NewSession is Reset on an empty session: it builds the session's shape
// for sc and sets up sc's run. No virtual time elapses yet, but the
// scenario's fault schedule is already armed on the simulator.
func NewSession(sc Scenario) (*Session, error) {
	s := new(Session)
	if err := s.Reset(sc); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset validates sc, applies its defaults and sets up sc's run, reusing
// the session's shape: the network (simulator, channel, MACs, packet
// factory, RNG streams), the routers, the collector and the meter. An
// empty session builds them first (NewSession). In the steady state a
// reset session runs a complete scenario without allocating. A scenario
// of another shape (shapeOf, or tracing on or off) gets ErrSessionShape
// and leaves the session as it was. All per-run setup lives here: the
// link table, group joins, backoff, destinations, faults, motion and the
// trace writer.
//
// Because every random substream is re-derived from the new seed exactly
// as construction derives it, a reset session is bit-identical to a fresh
// one: same packets on the air, same metrics, same RNG draw order.
func (s *Session) Reset(sc Scenario) error {
	if err := sc.validate(); err != nil {
		return err
	}
	sc.normalize()
	if s.net != nil && (shapeOf(sc) != s.shape || (sc.TraceWriter != nil) != (s.logger != nil)) {
		return ErrSessionShape
	}
	links := sc.Links
	if sc.Mobility.active() {
		// A mobile run needs the session-owned mutable table, rewound to
		// the start positions: a shared table must never be mutated.
		if s.dyn == nil {
			s.dyn = channel.NewDynamicLinkTable(sc.Topo.Positions, radioFor(sc.Topo))
		} else {
			s.dyn.Rebind(sc.Topo.Positions)
		}
		links = s.dyn.Table()
	} else if links == nil {
		links = LinkTableFor(sc.Topo)
	}
	if s.net == nil {
		s.build(sc, links)
	} else {
		s.net.Reset(sc.Topo, links, sc.Seed)
	}
	backoff := sc.coreOverride() == nil
	for _, r := range s.routers {
		r.Reset()
		if b, ok := r.(interface{ SetBackoff(int, sim.Time) }); ok && backoff {
			b.SetBackoff(sc.N, sc.Delta)
		}
	}
	for _, r := range sc.Receivers {
		s.net.Nodes[r].JoinGroup(s.group)
	}
	// Geographic multicast assumes the source knows its receivers.
	s.setDestinations(sc)
	s.applyFaults(sc)
	s.applyMobility(sc)
	s.net.SetDigest(sc.digest)
	s.col.Reset(packet.NodeID(sc.Source), s.group, sc.Receivers)
	s.meter.Rebind(sc.Topo)
	if s.logger != nil {
		*s.logger = *trace.NewLogger(sc.TraceWriter)
	}
	s.sc = sc
	s.key = packet.FloodKey{}
	s.helloDone = false
	s.discovered = false
	s.adoptedEvents = 0
	return nil
}

// build makes the session's shape for sc over links: the network, a
// router per node, the collector, the meter and, if traced, the logger.
func (s *Session) build(sc Scenario, links *channel.LinkTable) {
	cfg := network.DefaultConfig(sc.Seed)
	cfg.Radio = radioFor(sc.Topo)
	cfg.MAC = sc.Radio.MAC
	cfg.DisableCollisions = sc.Radio.DisableCollisions
	cfg.ShadowingSigmaDB = sc.Radio.ShadowingSigmaDB
	cfg.Links = links
	s.shape = shapeOf(sc)
	s.group = 1
	s.net = network.New(sc.Topo, cfg)
	s.routers = make([]proto.Router, sc.Topo.N())
	for i := range s.routers {
		s.routers[i] = buildRouter(sc)
		s.net.SetProtocol(i, s.routers[i])
	}
	s.col = metrics.NewCollector(s.net, packet.NodeID(sc.Source), s.group, sc.Receivers)
	s.meter = energy.NewMeter(sc.Topo, cfg.Radio, energy.DefaultModel())
	s.meter.Attach(s.net)
	if sc.TraceWriter != nil {
		s.logger = new(trace.Logger)
		s.logger.Attach(s.net)
	}
}

// applyFaults installs the scenario's fault options: the per-link loss
// model, the soft-state forwarder lifetime, and the armed fault schedule.
// Every setting is applied unconditionally — a reused session must also
// shed the previous run's options.
func (s *Session) applyFaults(sc Scenario) {
	s.net.SetLoss(sc.Faults.Loss)
	life := sc.Faults.ForwarderExpiry
	if life == 0 {
		life = protoConfig(sc).FGLifetime
	}
	for _, r := range s.routers {
		if fg, ok := r.(interface{ SetFGLifetime(sim.Time) }); ok {
			fg.SetFGLifetime(life)
		}
	}
	fault.Arm(s.net, sc.Faults.Schedule)
}

// applyMobility installs the scenario's motion: it draws the run's plan
// from the seed's dedicated "mobility" substream (a pure function of the
// scenario, same house rule as the fault planner — no randomness is
// consumed at run time) or adopts the configured trace, and builds a fresh
// mover over the session's dynamic table. The mover is armed later, at the
// start of the paced data phase, because each phase drains the event queue
// completely — ticks armed at construction would be consumed by the HELLO
// phase at topology-start positions. An inactive group sheds any previous
// run's mover.
func (s *Session) applyMobility(sc Scenario) {
	if !sc.Mobility.active() {
		s.mover = nil
		return
	}
	plan := sc.Mobility.Trace
	if plan == nil {
		cfg := mobility.Config{
			Model:    sc.Mobility.Model,
			Field:    sc.Topo.Side,
			MinSpeed: sc.Mobility.MinSpeed,
			MaxSpeed: sc.Mobility.MaxSpeed,
			Pause:    sc.Mobility.Pause,
			Horizon:  sc.Traffic.Interval * sim.Time(sc.Traffic.DataPackets),
			Groups:   sc.Mobility.Groups,
			Pinned:   []int{sc.Source},
		}
		p := mobility.Draw(cfg, sc.Topo.Positions, rng.New(sc.Seed).Derive("mobility"))
		plan = &p
	}
	s.mover = mobility.NewMover(plan, s.dyn, sc.Mobility.Step)
}

// setDestinations installs the receiver list at the source for protocols
// that want it (GMR's location-awareness assumption), reusing the
// session-owned scratch slice.
func (s *Session) setDestinations(sc Scenario) {
	src, ok := s.routers[sc.Source].(interface {
		SetDestinations([]packet.NodeID)
	})
	if !ok {
		return
	}
	s.dests = s.dests[:0]
	for _, r := range sc.Receivers {
		s.dests = append(s.dests, packet.NodeID(r))
	}
	src.SetDestinations(s.dests)
}

// RunHello runs the HELLO beacon exchange that populates neighbor tables,
// then seals every table (folds its HELLO log into its sorted entries), so
// the phase ends with the tables built. It is idempotent; the discovery
// phase calls it automatically if needed.
//
// The phase drains the event queue, so it also fires every fault event
// the scenario armed, whatever its time: after RunHello every scheduled
// crash, recovery, degradation and restoration has happened, and the
// clock stands at the last of them if that is later than the last
// beacon.
func (s *Session) RunHello() {
	if s.helloDone {
		return
	}
	// All beacons are scheduled up front and finite; Run drains the queue.
	s.net.Start()
	s.net.Run()
	for _, r := range s.routers {
		if b := helloBase(r); b != nil {
			b.NT.Seal()
		}
	}
	s.helloDone = true
}

// adoptHello gives s the state src reached in its HELLO phase instead of
// simulating that phase again. src must have run HELLO and nothing else,
// both sessions must run on proto.Base routers, and sameHello(src.sc,
// s.sc) must hold: then s continues bit-identically to a session that
// ran its own HELLO. Processed and Stats count the adopted events as
// s's own.
func (s *Session) adoptHello(src *Session) {
	if !src.helloDone || src.discovered || s.helloDone {
		panic("experiment: adoptHello needs a source just past HELLO and a freshly reset session")
	}
	s.net.AdoptIdle(src.net)
	for i, r := range s.routers {
		helloBase(r).AdoptHello(helloBase(src.routers[i]))
	}
	s.col.AdoptIdle(src.col)
	s.meter.AdoptIdle(src.meter)
	s.helloDone = true
	s.adoptedEvents = src.net.Sim.Processed()
}

// helloBase returns the proto.Base engine a router runs on, or nil for
// routers (Flooding, GMR) that keep their own state and send no HELLOs.
func helloBase(r proto.Router) *proto.Base {
	if e, ok := r.(interface{ Engine() *proto.Base }); ok {
		return e.Engine()
	}
	return nil
}

// sameHello reports whether two scenarios run the same HELLO phase: the
// same nodes, links, memberships, random streams, PHY and MAC, the same
// protocol timing (protoConfig) and the same faults firing while the
// beacons drain. Protocol, N, δ, the rest of a Core override, Traffic and
// ForwarderExpiry act only after HELLO and are not compared. A traced
// scenario never matches: its log must see its own HELLO frames. A
// digested scenario matches only another digested one, whose digest it
// takes over.
func sameHello(a, b Scenario) bool {
	la, lb := a.Faults.Loss, b.Faults.Loss
	return a.TraceWriter == nil && b.TraceWriter == nil && a.digest == b.digest &&
		protoConfig(a) == protoConfig(b) &&
		a.Topo == b.Topo && a.Links == b.Links && a.Source == b.Source &&
		slices.Equal(a.Receivers, b.Receivers) && a.Seed == b.Seed &&
		a.Radio == b.Radio &&
		slices.Equal(a.Faults.Schedule, b.Faults.Schedule) &&
		(la == lb || la != nil && lb != nil && *la == *lb) &&
		a.Mobility.active() == b.Mobility.active()
}

// RunDiscovery floods rounds JoinQuerys from the source (rounds <= 0
// takes the scenario default: DiscoveryRounds, or 2). Each round rebuilds
// the forwarding tree; data flows down the tree of the last round. It may
// be called again later to model an ODMRP-style route refresh.
func (s *Session) RunDiscovery(rounds int) packet.FloodKey {
	s.RunHello()
	if rounds <= 0 {
		rounds = s.sc.Traffic.DiscoveryRounds
	}
	if rounds <= 0 {
		rounds = 2
	}
	for i := 0; i < rounds; i++ {
		s.key = s.routers[s.sc.Source].FloodQuery(s.group)
		s.net.Run()
	}
	s.discovered = true
	return s.key
}

// DataReport is RunData's per-call outcome: how many data packets the
// source actually put on the air (a crashed source sends nothing) and, for
// each of them in send order, how many multicast receivers a first copy
// reached. Delivered aliases session-owned storage — read it before the
// next Reset and do not modify it.
type DataReport struct {
	Sent      int
	Delivered []int
}

// RunData pushes n data packets (n <= 0 takes the scenario default:
// Traffic.DataPackets, or 1) down the most recently discovered tree and
// reports the per-packet delivery counts, so callers no longer need to
// diff Metrics snapshots around the call. It may be called repeatedly;
// packet counts accumulate in the metrics but each report covers only its
// own call.
//
// With Traffic.Interval 0 each packet is sent and the event queue drained
// before the next — the legacy back-to-back workload. A positive Interval
// paces the sends in virtual time instead, so soft-state expiry — and
// any fault event a caller arms on the simulator after discovery —
// interleaves with the traffic (the scenario's own fault schedule has
// already fired in the HELLO phase; see RunHello); Traffic.RefreshInterval
// then re-floods a JoinQuery periodically inside the data phase (ODMRP's
// route refresh) and subsequent packets flow down the refreshed tree.
func (s *Session) RunData(n int) (DataReport, error) {
	if !s.discovered {
		return DataReport{}, ErrNoDiscovery
	}
	if n <= 0 {
		n = s.sc.Traffic.DataPackets
	}
	if n <= 0 {
		n = 1
	}
	start := s.col.DataPacketCount()
	if iv := s.sc.Traffic.Interval; iv <= 0 {
		for i := 0; i < n; i++ {
			s.routers[s.sc.Source].SendData(s.key, s.sc.Traffic.PayloadLen)
			s.net.Run()
		}
	} else {
		s.runPacedData(n, iv)
	}
	counts := s.col.PacketCounts()
	return DataReport{Sent: s.col.DataPacketCount() - start, Delivered: counts[start:]}, nil
}

// runPacedData schedules n sends iv apart, plus the periodic JoinQuery
// refreshes that fall inside the span, then drains the queue once. The
// send uses the session's current key, so a refresh that completes between
// two sends redirects the following packets down the new tree.
func (s *Session) runPacedData(n int, iv sim.Time) {
	base := s.net.Sim.Now()
	for i := 0; i < n; i++ {
		s.net.Sim.At(base+sim.Time(i)*iv, func() {
			s.routers[s.sc.Source].SendData(s.key, s.sc.Traffic.PayloadLen)
		})
	}
	if rf := s.sc.Traffic.RefreshInterval; rf > 0 {
		for at := base + rf; at < base+sim.Time(n)*iv; at += rf {
			s.net.Sim.At(at, func() {
				if s.net.Nodes[s.sc.Source].Down() {
					return // a crashed source cannot refresh
				}
				s.key = s.routers[s.sc.Source].FloodQuery(s.group)
			})
		}
	}
	// Motion plays over the data phase. Armed last — after the sends and
	// refreshes — so its events carry the highest sequence numbers at any
	// shared timestamp; the fixed arming order is part of what keeps fresh
	// and pooled mobile runs bit-identical. Arm is idempotent: motion runs
	// once even if RunData is called again.
	if s.mover != nil {
		s.mover.Arm(s.net.Sim, base, sim.Time(n)*iv)
	}
	s.net.Run()
}

// Key returns the flood key of the last discovery round.
func (s *Session) Key() packet.FloodKey { return s.key }

// Network exposes the simulated network (e.g. to fail nodes between
// phases).
func (s *Session) Network() *network.Network { return s.net }

// Routers exposes the per-node protocol instances.
func (s *Session) Routers() []proto.Router { return s.routers }

// Events returns the number of simulator events processed so far. After
// a SessionPool round handed this session another row's HELLO phase, the
// count includes the HELLO events that row ran, so it matches a session
// that ran its own HELLO.
func (s *Session) Events() uint64 { return s.net.Sim.Processed() }

// Stats returns the underlying simulator's observability counters for
// everything run so far: events processed, peak queue depth, wall time
// inside the event loop and the resulting events/sec throughput
// (cmd/mtmrsim -stats prints them).
func (s *Session) Stats() sim.Stats { return s.net.Sim.Stats() }

// Err reports a trace-log write failure, if any.
func (s *Session) Err() error {
	if s.logger != nil && s.logger.Err() != nil {
		return fmt.Errorf("experiment: trace log: %w", s.logger.Err())
	}
	return nil
}

// Metrics snapshots the paper's metrics for everything run so far,
// including the energy accounting.
func (s *Session) Metrics() metrics.Result {
	res := s.col.Snapshot()
	res.EnergyTotalJ = s.meter.TotalEnergy()
	_, res.EnergyMaxNodeJ = s.meter.MaxNodeEnergy()
	return res
}

// Robustness snapshots the fault-injection metrics for everything run so
// far: per-receiver packet delivery ratios, closed delivery gaps (tree
// repairs) and the mean time to repair. Meaningful for any run; without
// faults it reports an all-ones PDR.
func (s *Session) Robustness() metrics.Robustness { return s.col.Robustness() }

// finish runs the scenario's discovery and data phases on a session past
// HELLO and returns its outcome.
func (s *Session) finish() (*Outcome, error) {
	s.RunDiscovery(s.sc.Traffic.DiscoveryRounds)
	if _, err := s.RunData(s.sc.Traffic.DataPackets); err != nil {
		return nil, err
	}
	return s.Outcome()
}

// Outcome bundles the session state in the form Run returns.
func (s *Session) Outcome() (*Outcome, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	return &Outcome{
		Result:     s.Metrics(),
		Robustness: s.Robustness(),
		Key:        s.key,
		Net:        s.net,
		Routers:    s.routers,
		Scenario:   s.sc,
	}, nil
}
