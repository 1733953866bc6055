package experiment

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"mtmrp/internal/core"
	"mtmrp/internal/metrics"
	"mtmrp/internal/network"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

// TestSessionMatchesRun: driving the phases by hand with the same
// defaults must reproduce Run bit-for-bit.
func TestSessionMatchesRun(t *testing.T) {
	for _, p := range []Protocol{MTMRP, DODMRP, ODMRP, Flooding} {
		sc := gridScenario(t, p, 11, 15)
		want, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(sc)
		if err != nil {
			t.Fatal(err)
		}
		s.RunHello()
		key := s.RunDiscovery(0)
		if _, err := s.RunData(0); err != nil {
			t.Fatal(err)
		}
		got, err := s.Outcome()
		if err != nil {
			t.Fatal(err)
		}
		if key != want.Key {
			t.Errorf("%v: flood key %+v != %+v", p, key, want.Key)
		}
		if !resultsEqual(got.Result, want.Result) {
			t.Errorf("%v: phased session diverged from Run:\n  %+v\nvs %+v", p, got.Result, want.Result)
		}
	}
}

// resultsEqual compares two Results (Forwarders is a slice, so the
// struct is not ==-comparable).
func resultsEqual(a, b metrics.Result) bool {
	return reflect.DeepEqual(a, b)
}

func TestSessionValidation(t *testing.T) {
	topo := topology.PaperGrid()
	if _, err := NewSession(Scenario{Topo: topo}); err != ErrNoReceivers {
		t.Errorf("want ErrNoReceivers, got %v", err)
	}
	if _, err := NewSession(Scenario{Topo: topo, Source: -1, Receivers: []int{1}}); err != ErrBadSource {
		t.Errorf("want ErrBadSource, got %v", err)
	}
	// Negative traffic fields: a negative payload once panicked the
	// simulator with a negative delay, and negative counts ran as defaults.
	for _, tc := range []struct {
		name    string
		traffic TrafficOptions
	}{
		{"payload", TrafficOptions{PayloadLen: -1000}},
		{"data packets", TrafficOptions{DataPackets: -3}},
		{"discovery rounds", TrafficOptions{DiscoveryRounds: -2}},
		{"interval", TrafficOptions{Interval: -sim.Millisecond}},
		{"refresh interval", TrafficOptions{Interval: sim.Millisecond, RefreshInterval: -sim.Millisecond}},
	} {
		sc := gridScenario(t, MTMRP, 1, 5)
		sc.Traffic = tc.traffic
		if _, err := NewSession(sc); err != ErrTraffic {
			t.Errorf("negative %s: want ErrTraffic, got %v", tc.name, err)
		}
	}
	// An invalid Core override once panicked in router construction.
	sc := gridScenario(t, MTMRP, 1, 5)
	sc.Core = &core.Config{}
	if _, err := NewSession(sc); err == nil {
		t.Error("invalid Core: want an error, got nil")
	}
}

// TestCoreLifetimeWithoutForwarderExpiry: a Core override's forwarder
// lifetime holds unless Faults.ForwarderExpiry sets one, also across
// Reset.
func TestCoreLifetimeWithoutForwarderExpiry(t *testing.T) {
	soft := core.DefaultConfig()
	soft.Proto.FGLifetime = 300 * sim.Millisecond
	sc := gridScenario(t, MTMRP, 1, 5)
	sc.Core = &soft
	lifetime := func(s *Session) sim.Time {
		return sim.Time(field(helloBase(s.Routers()[0]), "cfg", "FGLifetime").Int())
	}
	s, err := NewSession(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		expiry, want sim.Time
	}{
		{0, 300 * sim.Millisecond},
		{50 * sim.Millisecond, 50 * sim.Millisecond},
		{0, 300 * sim.Millisecond},
	} {
		sc.Faults.ForwarderExpiry = tc.expiry
		if err := s.Reset(sc); err != nil {
			t.Fatal(err)
		}
		if got := lifetime(s); got != tc.want {
			t.Errorf("ForwarderExpiry %v: router lifetime %v, want %v", tc.expiry, got, tc.want)
		}
	}
}

// TestResetRefusesOtherShape: Reset onto a scenario of another shape
// returns ErrSessionShape and leaves the session able to run its own
// shape, bit-identically to a fresh session; a traced session logs each
// run to that run's writer.
func TestResetRefusesOtherShape(t *testing.T) {
	sc := gridScenario(t, MTMRP, 3, 10)
	other, err := topology.PaperRandom(rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	noRelay := core.DefaultConfig()
	noRelay.DisableRelayBias = true
	for _, tc := range []struct {
		name string
		edit func(sc *Scenario)
	}{
		{"protocol", func(sc *Scenario) { sc.Protocol = ODMRP }},
		{"MAC", func(sc *Scenario) { sc.Radio.MAC = network.MACIdeal }},
		{"collisions", func(sc *Scenario) { sc.Radio.DisableCollisions = true }},
		{"shadowing", func(sc *Scenario) { sc.Radio.ShadowingSigmaDB = 2 }},
		{"core", func(sc *Scenario) { sc.Core = &noRelay }},
		{"topology size", func(sc *Scenario) { sc.Topo = other }},
		{"traced", func(sc *Scenario) { sc.TraceWriter = io.Discard }},
	} {
		s, err := NewSession(sc)
		if err != nil {
			t.Fatal(err)
		}
		bad := sc
		tc.edit(&bad)
		if err := s.Reset(bad); err != ErrSessionShape {
			t.Errorf("%s: Reset = %v, want ErrSessionShape", tc.name, err)
		}
		s.RunHello()
		got, err := s.finish()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Scenario.Protocol != sc.Protocol || !resultsEqual(got.Result, want.Result) {
			t.Errorf("%s: the refused Reset changed the session's run", tc.name)
		}
	}

	var first, second bytes.Buffer
	logged := sc
	logged.TraceWriter = &first
	s, err := NewSession(logged)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(sc); err != ErrSessionShape {
		t.Errorf("untraced Reset of a traced session = %v, want ErrSessionShape", err)
	}
	s.RunHello()
	if _, err := s.finish(); err != nil {
		t.Fatal(err)
	}
	n := first.Len()
	logged.TraceWriter = &second
	if err := s.Reset(logged); err != nil {
		t.Fatal(err)
	}
	s.RunHello()
	if _, err := s.finish(); err != nil {
		t.Fatal(err)
	}
	if n == 0 || first.Len() != n || second.String() != first.String() {
		t.Errorf("first writer: %d bytes after its run, %d after the next; second writer: %d bytes; "+
			"want the next run logged to the second writer alone, identically", n, first.Len(), second.Len())
	}
}

func TestSessionDataBeforeDiscovery(t *testing.T) {
	s, err := NewSession(gridScenario(t, MTMRP, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunData(1); err != ErrNoDiscovery {
		t.Errorf("want ErrNoDiscovery, got %v", err)
	}
}

// TestSessionInterleavedPhases is the capability Run cannot express: an
// initial tree, steady-state traffic, a route refresh, more traffic —
// all inside one session with cumulative metrics.
func TestSessionInterleavedPhases(t *testing.T) {
	s, err := NewSession(gridScenario(t, MTMRP, 3, 10))
	if err != nil {
		t.Fatal(err)
	}
	s.RunDiscovery(1) // RunHello is implicit
	if _, err := s.RunData(3); err != nil {
		t.Fatal(err)
	}
	mid := s.Metrics()
	if mid.DataTxTotal < 3 {
		t.Fatalf("DataTxTotal = %d after 3 packets", mid.DataTxTotal)
	}
	ev := s.Events()
	if ev == 0 {
		t.Fatal("no simulator events recorded")
	}

	key2 := s.RunDiscovery(1) // refresh
	if _, err := s.RunData(3); err != nil {
		t.Fatal(err)
	}
	end := s.Metrics()
	if end.DataTxTotal < mid.DataTxTotal+3 {
		t.Errorf("refresh+data did not accumulate: %d -> %d", mid.DataTxTotal, end.DataTxTotal)
	}
	if s.Key() != key2 {
		t.Error("Key() should track the last discovery round")
	}
	if s.Events() <= ev {
		t.Error("event counter did not advance across phases")
	}
	if s.Err() != nil {
		t.Errorf("unexpected trace error: %v", s.Err())
	}
}

// TestSessionHelloIdempotent: repeated RunHello must not re-beacon.
func TestSessionHelloIdempotent(t *testing.T) {
	s, err := NewSession(gridScenario(t, MTMRP, 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	s.RunHello()
	ev := s.Events()
	s.RunHello()
	if s.Events() != ev {
		t.Errorf("second RunHello did work: %d -> %d events", ev, s.Events())
	}
}

// TestRandomFieldEventsPerEntry pins the scheduler's queue economy on a
// paper-scale random field (200 nodes, 200 m, 40 m range, seed 1, 20
// receivers, one data packet — `mtmrsim -topo random -stats`), where
// nearly every carrier-sense link has its own propagation delay. Each
// transmission's fan is two cursor entries whatever its delays, so the
// session must run at least 5 events per queue entry, cursor re-queues
// included.
func TestRandomFieldEventsPerEntry(t *testing.T) {
	topo, err := topology.RandomConnected(200, 200, 40, rng.New(1), 100)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := topo.PickReceivers(0, 20, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(Scenario{Topo: topo, Source: 0, Receivers: rcv, Protocol: MTMRP, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.RunHello()
	s.RunDiscovery(0)
	if _, err := s.RunData(1); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Entries == 0 || float64(st.Processed) < 5*float64(st.Entries) {
		t.Errorf("%d events took %d queue entries (%.2f per entry), want at least 5 per entry",
			st.Processed, st.Entries, float64(st.Processed)/float64(st.Entries))
	}
	t.Logf("%d events, %d queue entries (%.2f per entry)",
		st.Processed, st.Entries, float64(st.Processed)/float64(st.Entries))
}

// TestFanSortCounts pins channel.Stats.FanSorts, the channel's count of
// fan-order sorts. On the paper grid a session sorts each transmitting
// node's fan at most once, far fewer times than it transmits; a pooled
// session Reset onto the same shared table keeps every order and sorts
// nothing; a mobile run, whose moves edit link lists, sorts again after
// its Reset rewinds the dynamic table, and re-sorts the fans its moves
// touch, so it sorts more than once per node.
func TestFanSortCounts(t *testing.T) {
	run := func(s *Session) (fanSorts, tx uint64) {
		t.Helper()
		s.RunHello()
		s.RunDiscovery(0)
		if _, err := s.RunData(0); err != nil {
			t.Fatal(err)
		}
		st := s.Network().Chan.Stats()
		return st.FanSorts, st.Transmissions
	}

	sc := gridScenario(t, MTMRP, 3, 20)
	sc.Links = LinkTableFor(sc.Topo)
	s, err := NewSession(sc)
	if err != nil {
		t.Fatal(err)
	}
	sorts, tx := run(s)
	if sorts == 0 || sorts > uint64(sc.Topo.N()) || 4*sorts > tx {
		t.Errorf("grid session: %d fan sorts for %d transmissions by %d nodes", sorts, tx, sc.Topo.N())
	}
	t.Logf("grid session: %d fan sorts, %d transmissions", sorts, tx)
	sc.Seed = 4
	if err := s.Reset(sc); err != nil {
		t.Fatal(err)
	}
	if sorts, tx := run(s); sorts != 0 || tx == 0 {
		t.Errorf("pooled rerun on the same table: %d fan sorts for %d transmissions, want 0", sorts, tx)
	}

	mobile := mobileScenario(t, MTMRP)
	m, err := NewSession(mobile)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := run(m)
	if err := m.Reset(mobile); err != nil {
		t.Fatal(err)
	}
	t.Logf("mobile session: %d fan sorts", first)
	if again, _ := run(m); first <= uint64(mobile.Topo.N()) || again != first {
		t.Errorf("mobile runs sorted %d then %d fans, want equal and above one per node (%d)",
			first, again, mobile.Topo.N())
	}
}
