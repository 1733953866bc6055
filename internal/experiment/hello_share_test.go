package experiment

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"

	"mtmrp/internal/channel"
	"mtmrp/internal/fault"
	"mtmrp/internal/metrics"
	"mtmrp/internal/mobility"
	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

// sessionPrint is everything a session's future and its reported results
// can depend on. Fields without an accessor are read through reflection.
// Caches that only change speed — fan orders and FanSorts, frame and
// event pools, the queue's layout — are left out.
type sessionPrint struct {
	Result     metrics.Result
	Robustness metrics.Robustness
	TxEnergy   []float64
	RxEnergy   []float64

	Now        sim.Time
	Processed  uint64
	Entries    uint64
	MaxPending int
	Seq        uint64 // the next event sequence number

	Chan     channel.Stats // FanSorts zeroed
	UID      uint64        // the last frame uid
	Digest   uint64        // the frame digest (0 unless the scenario digests)
	BadLinks [][2]uint64   // loss chains in the Bad state: (link, value), sorted
	Degraded []bool
	Down     []bool

	// Streams holds every random stream: the network's root, channel,
	// loss and network streams, then per node its own stream, its MAC's
	// and its protocol's.
	Streams [][4]uint64
	// MACs is per node: state, slots, busy and Dropped (CSMA) or sending
	// (Ideal).
	MACs [][4]int64
	// Neighbors is per node the neighbor table in iteration order; nil
	// for routers without one. Tables holds each table's entry count and
	// the node's number of protocol session blocks.
	Neighbors [][]neighborPrint
	Tables    [][2]int64
}

type neighborPrint struct {
	ID     packet.NodeID
	Count  int
	Groups []int64
}

// field follows a chain of field names from v, exported or not,
// dereferencing pointers and interfaces on the way. A renamed field
// panics here rather than silently dropping out of the print.
func field(v any, path ...string) reflect.Value {
	rv := reflect.ValueOf(v)
	deref := func() {
		for rv.Kind() == reflect.Pointer || rv.Kind() == reflect.Interface {
			rv = rv.Elem()
		}
	}
	for _, name := range path {
		deref()
		f := rv.FieldByName(name)
		if !f.IsValid() {
			panic(fmt.Sprintf("no field %q in %s", name, rv.Type()))
		}
		rv = f
	}
	deref()
	return rv
}

// stream reads an rng.RNG's state.
func stream(rv reflect.Value) [4]uint64 {
	for rv.Kind() == reflect.Pointer {
		rv = rv.Elem()
	}
	s := rv.FieldByName("s")
	return [4]uint64{s.Index(0).Uint(), s.Index(1).Uint(), s.Index(2).Uint(), s.Index(3).Uint()}
}

func printOf(s *Session) sessionPrint {
	net := s.net
	p := sessionPrint{
		Result:     s.Metrics(),
		Robustness: s.Robustness(),
		Now:        net.Sim.Now(),
		Seq:        field(net.Sim, "seq").Uint(),
		Chan:       net.Chan.Stats(),
		UID:        field(net.Chan, "uid").Uint(),
		Digest:     net.Digest(),
	}
	st := net.Sim.Stats()
	p.Processed, p.Entries, p.MaxPending = st.Processed, st.Entries, st.MaxPending
	p.Chan.FanSorts = 0
	bad := field(net.Chan, "geBad")
	keys, vals := bad.FieldByName("keys"), bad.FieldByName("vals")
	for i := 0; i < keys.Len(); i++ {
		if k := keys.Index(i).Uint(); k != 0 {
			p.BadLinks = append(p.BadLinks, [2]uint64{k - 1, uint64(vals.Index(i).Int())})
		}
	}
	slices.SortFunc(p.BadLinks, func(a, b [2]uint64) int { return int(a[0]) - int(b[0]) })
	for _, name := range []string{"root", "chanRand", "lossRand", "Rand"} {
		p.Streams = append(p.Streams, stream(field(net, name)))
	}
	for i, node := range net.Nodes {
		p.TxEnergy = append(p.TxEnergy, s.meter.TxEnergy(i))
		p.RxEnergy = append(p.RxEnergy, s.meter.RxEnergy(i))
		p.Degraded = append(p.Degraded, net.Chan.Degraded(i))
		p.Down = append(p.Down, node.Down())
		p.Streams = append(p.Streams, stream(reflect.ValueOf(node.Rand)))
		m := field(node, "mac")
		switch m.Type().Name() {
		case "CSMA":
			var busy int64
			if net.Chan.Busy(i) {
				busy = 1
			}
			p.MACs = append(p.MACs, [4]int64{int64(m.FieldByName("state").Uint()),
				m.FieldByName("slots").Int(), busy, int64(m.FieldByName("Dropped").Uint())})
			p.Streams = append(p.Streams, stream(m.FieldByName("rnd")))
		case "Ideal":
			var sending int64
			if m.FieldByName("sending").Bool() {
				sending = 1
			}
			p.MACs = append(p.MACs, [4]int64{sending})
		default:
			panic("unknown MAC " + m.Type().Name())
		}
		b := helloBase(s.routers[i])
		if b == nil {
			p.Neighbors = append(p.Neighbors, nil)
			p.Tables = append(p.Tables, [2]int64{-1, -1})
			continue
		}
		p.Streams = append(p.Streams, stream(field(b, "rnd")))
		nt := &b.NT
		nbrs := []neighborPrint{}
		for k := 0; k < nt.Len(); k++ {
			e := nt.At(k)
			np := neighborPrint{ID: e.ID, Count: int(e.Count)}
			arena, off := field(nt, "groups"), field(e, "off").Int()
			for j := off; j < off+field(e, "n").Int(); j++ {
				np.Groups = append(np.Groups, arena.Index(int(j)).Int())
			}
			nbrs = append(nbrs, np)
		}
		p.Neighbors = append(p.Neighbors, nbrs)
		p.Tables = append(p.Tables, [2]int64{int64(nt.Len()), int64(field(b, "sessions").Len())})
	}
	return p
}

// diffPrints names the first field where two prints differ, or returns "".
func diffPrints(got, want sessionPrint) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			gs, ws := fmt.Sprint(g.Field(i).Interface()), fmt.Sprint(w.Field(i).Interface())
			if len(gs) > 300 {
				gs, ws = gs[:300]+"…", ws[:min(len(ws), 300)]+"…"
			}
			return fmt.Sprintf("%s differs:\n  pooled %s\n  fresh  %s", g.Type().Field(i).Name, gs, ws)
		}
	}
	return ""
}

// checkingPool runs rounds through a SessionPool and holds every pooled
// row, after HELLO and after the whole run, against a fresh session that
// simulated its own HELLO.
type checkingPool struct {
	t       *testing.T
	pool    *SessionPool
	rounds  int
	adopted int
}

func (c *checkingPool) RunRound(scs []Scenario, each func(row int, out *Outcome) error) (uint64, error) {
	c.t.Helper()
	p := c.pool
	before := p.adopted
	// Digest every row, so the prints compare the order of frames on
	// the air, HELLO's included, and not only their sums.
	for r := range scs {
		scs[r].digest = true
	}
	if err := p.startRound(scs); err != nil {
		return 0, err
	}
	fresh := make([]*Session, len(scs))
	for r, s := range p.rows {
		f, err := NewSession(scs[r])
		if err != nil {
			return 0, err
		}
		f.RunHello()
		if d := diffPrints(printOf(s), printOf(f)); d != "" {
			return 0, fmt.Errorf("row %d (%v) after HELLO: %s", r, scs[r].Protocol, d)
		}
		fresh[r] = f
	}
	events, err := p.finishRound(func(r int, out *Outcome) error {
		if _, err := fresh[r].finish(); err != nil {
			return err
		}
		if d := diffPrints(printOf(p.rows[r]), printOf(fresh[r])); d != "" {
			return fmt.Errorf("row %d (%v) after the run: %s", r, scs[r].Protocol, d)
		}
		return each(r, out)
	})
	c.rounds++
	c.adopted += p.adopted - before
	return events, err
}

// checkRounds runs rounds built by mk (one per seed) through a checking
// pool and fails on the first divergence.
func checkRounds(t *testing.T, c *checkingPool, seeds int, mk func(seed uint64) []Scenario) {
	t.Helper()
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		if _, err := c.RunRound(mk(seed), func(int, *Outcome) error { return nil }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestAdoptedHelloMatchesFreshSessions is the proof obligation of shared
// HELLO phases: for every study that runs through the pool, and for the
// radio and fault settings no study sweeps, every row of every round —
// adopted or not — must equal a fresh session that simulated its own
// HELLO, field for field (sessionPrint), right after HELLO and after the
// whole run, frame digest included. The goldens alone cannot show this: a copy that misses a
// field the metrics never read would pass them.
func TestAdoptedHelloMatchesFreshSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every study; skipped in -short")
	}
	newChecker := func(t *testing.T) *checkingPool {
		return &checkingPool{t: t, pool: NewSessionPool()}
	}
	engine := func(c *checkingPool) EngineOptions {
		return EngineOptions{Workers: 1, WorkerState: func() any { return c }}
	}
	loss := channel.DefaultLossConfig()
	studies := []struct {
		name string
		run  func(EngineOptions) error
	}{
		{"grid-size", func(e EngineOptions) error {
			_, err := GroupSizeSweep(SweepConfig{Topo: GridTopo, Sizes: []int{5, 33, 62}, Runs: 2, Seed: 3, Engine: e})
			return err
		}},
		{"random-size", func(e EngineOptions) error {
			_, err := GroupSizeSweep(SweepConfig{Topo: RandomTopo, Sizes: []int{5, 25}, Runs: 1, Seed: 3, Engine: e})
			return err
		}},
		{"tuning", func(e EngineOptions) error {
			_, err := TuningSweep(TuningConfig{Topo: GridTopo, Ns: []int{3, 6}, Deltas: []sim.Time{sim.Millisecond, 20 * sim.Millisecond}, Runs: 1, Seed: 3, Engine: e})
			return err
		}},
		{"shadowing", func(e EngineOptions) error {
			_, err := ShadowingSweep(ShadowingConfig{Topo: GridTopo, SigmasDB: []float64{2}, Runs: 2, Seed: 3, Engine: e})
			return err
		}},
		{"lossy-faults", func(e EngineOptions) error {
			_, err := FaultSweep(FaultConfig{Topo: GridTopo, FailFractions: []float64{0.2}, Runs: 2, Seed: 3,
				Packets: 5, Downtime: 300 * sim.Millisecond, Loss: &loss, Engine: e})
			return err
		}},
		{"mobility", func(e EngineOptions) error {
			_, err := MobilitySweep(MobilityConfig{Topo: GridTopo, Speeds: []float64{10}, Pauses: []sim.Time{0}, Runs: 1, Seed: 3, Packets: 5, Engine: e})
			return err
		}},
		{"amortize", func(e EngineOptions) error {
			_, err := AmortizeSweep(AmortizeConfig{Topo: GridTopo, Packets: []int{2}, Runs: 2, Seed: 3, Engine: e})
			return err
		}},
		{"ablation", func(e EngineOptions) error {
			_, err := AblationSweep(AblationConfig{Topo: GridTopo, GroupSize: 10, Runs: 2, Seed: 3, Engine: e})
			return err
		}},
	}
	for _, st := range studies {
		t.Run(st.name, func(t *testing.T) {
			c := newChecker(t)
			if err := st.run(engine(c)); err != nil {
				t.Fatal(err)
			}
			if c.rounds == 0 || c.adopted == 0 {
				t.Fatalf("%d rounds adopted %d HELLO phases; the check never ran", c.rounds, c.adopted)
			}
		})
	}

	grid := topology.PaperGrid()
	links := LinkTableFor(grid)
	round := func(edit func(sc *Scenario)) func(seed uint64) []Scenario {
		return func(seed uint64) []Scenario {
			rcv, err := grid.PickReceivers(0, 12, rng.New(seed).Derive("receivers"))
			if err != nil {
				t.Fatal(err)
			}
			scs := make([]Scenario, len(allProtocolsPlus))
			for r, p := range allProtocolsPlus {
				scs[r] = Scenario{Topo: grid, Source: 0, Receivers: rcv, Protocol: p, Seed: seed, Links: links}
				edit(&scs[r])
			}
			return scs
		}
	}
	settings := []struct {
		name string
		edit func(sc *Scenario)
	}{
		{"ideal-mac", func(sc *Scenario) { sc.Radio.MAC = network.MACIdeal }},
		{"collisions-off", func(sc *Scenario) { sc.Radio.DisableCollisions = true }},
		{"degrade-and-crash", func(sc *Scenario) {
			// Faults inside and after the HELLO phase, healed and not:
			// the drain fires all of them before discovery.
			sc.Faults.Schedule = fault.Schedule{
				{At: 300 * sim.Millisecond, Node: 11, Kind: fault.LinkDegrade},
				{At: 400 * sim.Millisecond, Node: 45, Kind: fault.NodeCrash},
				{At: 700 * sim.Millisecond, Node: 45, Kind: fault.NodeRecover},
				{At: 900 * sim.Millisecond, Node: 54, Kind: fault.LinkDegrade},
				{At: 1100 * sim.Millisecond, Node: 54, Kind: fault.LinkRestore},
				{At: 1600 * sim.Millisecond, Node: 67, Kind: fault.NodeCrash},
				{At: 2500 * sim.Millisecond, Node: 33, Kind: fault.LinkDegrade},
			}
			sc.Faults.ForwarderExpiry = 300 * sim.Millisecond
			sc.Traffic = TrafficOptions{DataPackets: 4, Interval: 50 * sim.Millisecond, RefreshInterval: 100 * sim.Millisecond}
		}},
	}
	for _, set := range settings {
		t.Run(set.name, func(t *testing.T) {
			c := newChecker(t)
			checkRounds(t, c, 3, round(set.edit))
			if want := 3 * 3; c.adopted != want {
				t.Fatalf("adopted %d HELLO phases over 3 rounds, want %d", c.adopted, want)
			}
		})
	}
}

// TestSameHelloCompleteness holds sameHello to the fingerprint it guards:
// every single-field change to a scenario that alters the state HELLO
// leaves behind must make sameHello false, and the fields sameHello
// ignores must leave that state alone. The fingerprint is a session's
// sessionPrint right after RunHello. Flooding and GMR are outside
// sameHello's domain (RunRound never offers them), so the protocol
// changes stay among the proto.Base protocols.
func TestSameHelloCompleteness(t *testing.T) {
	grid := topology.PaperGrid()
	links := LinkTableFor(grid)
	other, err := topology.PaperRandom(rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	loss := channel.DefaultLossConfig()
	base := Scenario{
		Topo: grid, Source: 0, Receivers: []int{7, 23, 42, 58, 76}, Protocol: MTMRP,
		Seed: 5, Links: links,
		Traffic: TrafficOptions{DataPackets: 3, Interval: 50 * sim.Millisecond},
		Faults: FaultOptions{
			Schedule: fault.Schedule{{At: 600 * sim.Millisecond, Node: 12, Kind: fault.NodeCrash}},
			Loss:     &loss,
		},
	}
	helloPrint := func(sc Scenario) sessionPrint {
		t.Helper()
		s, err := NewSession(sc)
		if err != nil {
			t.Fatal(err)
		}
		s.RunHello()
		return printOf(s)
	}
	want := helloPrint(base)

	// ignored: sameHello does not compare these, so HELLO must not see them.
	ignored := []struct {
		name string
		edit func(sc *Scenario)
	}{
		{"protocol MTMRP w/o PHS", func(sc *Scenario) { sc.Protocol = MTMRPNoPHS }},
		{"protocol DODMRP", func(sc *Scenario) { sc.Protocol = DODMRP }},
		{"protocol ODMRP", func(sc *Scenario) { sc.Protocol = ODMRP }},
		{"N", func(sc *Scenario) { sc.N = 6 }},
		{"delta", func(sc *Scenario) { sc.Delta = 20 * sim.Millisecond }},
		{"data packets", func(sc *Scenario) { sc.Traffic.DataPackets = 9 }},
		{"payload", func(sc *Scenario) { sc.Traffic.PayloadLen = 200 }},
		{"discovery rounds", func(sc *Scenario) { sc.Traffic.DiscoveryRounds = 1 }},
		{"interval", func(sc *Scenario) { sc.Traffic.Interval = 0 }},
		{"refresh", func(sc *Scenario) { sc.Traffic.RefreshInterval = 100 * sim.Millisecond }},
		{"forwarder expiry", func(sc *Scenario) { sc.Faults.ForwarderExpiry = 300 * sim.Millisecond }},
		{"core variant", func(sc *Scenario) { sc.Core = &AblationVariants(4, sim.Millisecond)[5].Config }},
	}
	for _, m := range ignored {
		sc := base
		m.edit(&sc)
		if !sameHello(base, sc) {
			t.Errorf("%s: sameHello = false, want true", m.name)
		}
		if d := diffPrints(helloPrint(sc), want); d != "" {
			t.Errorf("%s: HELLO state changed, but sameHello ignores it: %s", m.name, d)
		}
	}

	// compared: each either changes the HELLO state, and then sameHello
	// must say so, or leaves it alone; sameHello may still refuse those.
	hello4 := AblationVariants(4, sim.Millisecond)[0].Config
	hello4.Proto.HelloRounds = 4
	shuffled := slices.Clone(base.Receivers)
	shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
	compared := []struct {
		name string
		edit func(sc *Scenario)
	}{
		{"seed", func(sc *Scenario) { sc.Seed = 6 }},
		{"receivers", func(sc *Scenario) { sc.Receivers = []int{7, 23, 42, 58, 77} }},
		{"receiver order", func(sc *Scenario) { sc.Receivers = shuffled }},
		{"source", func(sc *Scenario) { sc.Source = 5 }},
		{"topology", func(sc *Scenario) { sc.Topo, sc.Links = other, LinkTableFor(other) }},
		{"link table", func(sc *Scenario) { sc.Links = LinkTableFor(grid) }},
		{"ideal MAC", func(sc *Scenario) { sc.Radio.MAC = network.MACIdeal }},
		{"collisions off", func(sc *Scenario) { sc.Radio.DisableCollisions = true }},
		{"shadowing", func(sc *Scenario) { sc.Radio.ShadowingSigmaDB = 2 }},
		{"fault time", func(sc *Scenario) {
			sc.Faults.Schedule = fault.Schedule{{At: 600 * sim.Millisecond, Node: 13, Kind: fault.NodeCrash}}
		}},
		{"fault kind", func(sc *Scenario) {
			sc.Faults.Schedule = fault.Schedule{{At: 600 * sim.Millisecond, Node: 12, Kind: fault.LinkDegrade}}
		}},
		{"late fault", func(sc *Scenario) {
			sc.Faults.Schedule = fault.Schedule{{At: 5000 * sim.Millisecond, Node: 12, Kind: fault.NodeCrash}}
		}},
		{"no faults", func(sc *Scenario) { sc.Faults.Schedule = nil }},
		{"no loss", func(sc *Scenario) { sc.Faults.Loss = nil }},
		{"loss rates", func(sc *Scenario) { l := loss; l.PGoodBad = 0.2; sc.Faults.Loss = &l }},
		{"mobility", func(sc *Scenario) { sc.Mobility = MobilityOptions{Model: mobility.RandomWaypoint, MaxSpeed: 10} }},
		{"core override", func(sc *Scenario) { c := AblationVariants(4, sim.Millisecond)[0].Config; sc.Core = &c }},
		{"core HELLO timing", func(sc *Scenario) { sc.Core = &hello4 }},
		{"trace", func(sc *Scenario) { sc.TraceWriter = io.Discard }},
		{"digest", func(sc *Scenario) { sc.digest = true }},
	}
	changed := 0
	for _, m := range compared {
		sc := base
		m.edit(&sc)
		if diffPrints(helloPrint(sc), want) == "" {
			continue
		}
		changed++
		if sameHello(base, sc) {
			t.Errorf("%s: changes the HELLO state, but sameHello = true", m.name)
		}
	}
	if changed < 10 {
		t.Errorf("only %d of %d compared fields changed the HELLO state; the fingerprint is too coarse", changed, len(compared))
	}
	// Other HELLO timing in a Core override must never share.
	sc := base
	sc.Core = &hello4
	if sameHello(base, sc) {
		t.Error("core HELLO timing: sameHello = true")
	}
	// Equal loss models behind different pointers are the same HELLO.
	sc = base
	l := loss
	sc.Faults.Loss = &l
	if !sameHello(base, sc) {
		t.Error("equal loss models behind two pointers: sameHello = false")
	}
}

// ablationRows returns sc edited once per ablation variant, as the
// ablation study's rounds are.
func ablationRows(sc Scenario) []Scenario {
	vs := AblationVariants(4, sim.Millisecond)
	rows := make([]Scenario, len(vs))
	for i := range vs {
		rows[i] = sc
		rows[i].Core = &vs[i].Config
	}
	return rows
}

// traced returns sc logging its frames to nowhere.
func traced(sc Scenario) Scenario {
	sc.TraceWriter = io.Discard
	return sc
}

// TestRoundAdoptionCounts pins how many rows of a round take their HELLO
// phase from an earlier row, and that RunRound counts an adopted phase's
// events once, in the row that ran it.
func TestRoundAdoptionCounts(t *testing.T) {
	grid := topology.PaperGrid()
	links := LinkTableFor(grid)
	rcv := []int{7, 23, 42, 58, 76, 91}
	row := func(p Protocol, seed uint64) Scenario {
		return Scenario{Topo: grid, Source: 0, Receivers: rcv, Protocol: p, Seed: seed, Links: links}
	}
	cases := []struct {
		name    string
		rows    []Scenario
		adopted int
	}{
		{"four protocols", []Scenario{row(MTMRP, 1), row(MTMRPNoPHS, 1), row(DODMRP, 1), row(ODMRP, 1)}, 3},
		{"amortize", []Scenario{row(MTMRP, 1), row(ODMRP, 1), row(Flooding, 1)}, 1},
		{"flooding first", []Scenario{row(Flooding, 1), row(GMR, 1), row(MTMRP, 1), row(ODMRP, 1)}, 1},
		{"other seed", []Scenario{row(MTMRP, 1), row(ODMRP, 2)}, 0},
		{"same shape twice", []Scenario{row(MTMRP, 1), row(MTMRP, 1)}, 1},
		{"ablation", ablationRows(row(MTMRP, 1)), 5},
		{"traced first", []Scenario{traced(row(MTMRP, 1)), row(ODMRP, 1), row(DODMRP, 1)}, 0},
		{"traced later", []Scenario{row(MTMRP, 1), traced(row(ODMRP, 1)), row(DODMRP, 1)}, 1},
	}
	pool := NewSessionPool()
	for _, c := range cases {
		before := pool.adopted
		var helloEvents, fresh uint64
		for _, sc := range c.rows {
			s, err := NewSession(sc)
			if err != nil {
				t.Fatal(err)
			}
			s.RunHello()
			if helloBase(s.routers[0]) != nil {
				helloEvents = s.Events()
			}
			out, err := s.finish()
			if err != nil {
				t.Fatal(err)
			}
			fresh += out.Net.Sim.Processed()
		}
		events, err := pool.RunRound(c.rows, func(int, *Outcome) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if got := pool.adopted - before; got != c.adopted {
			t.Errorf("%s: adopted %d HELLO phases, want %d", c.name, got, c.adopted)
		}
		if want := fresh - uint64(c.adopted)*helloEvents; events != want {
			t.Errorf("%s: RunRound simulated %d events, want %d (fresh rows %d, HELLO %d)",
				c.name, events, want, fresh, helloEvents)
		}
	}
}
