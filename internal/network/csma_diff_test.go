package network_test

import (
	"bytes"
	"fmt"
	"testing"

	"mtmrp"
	"mtmrp/internal/fault"
	"mtmrp/internal/mobility"
	"mtmrp/internal/network"
)

// diffSession is one session as `mtmrsim -proto P -topo T -seed S
// -packets 5` (plus Nodes/Side/Receivers when set) builds it.
type diffSession struct {
	proto     mtmrp.Protocol
	random    bool
	seed      uint64
	nodes     int
	side      float64
	receivers int
	variant   string                // names edit
	edit      func(*mtmrp.Scenario) // changes the scenario's radio, traffic, faults or motion
}

func (d diffSession) String() string {
	topo := "grid"
	if d.random {
		topo = fmt.Sprintf("random-%d", d.nodes)
	}
	if d.variant != "" {
		topo += "-" + d.variant
	}
	return fmt.Sprintf("%v-%s-seed%d", d.proto, topo, d.seed)
}

// run simulates the session and returns its simulator counters and
// frame digest, and, when traced, its JSONL frame trace.
func (d diffSession) run(t *testing.T, traced bool) (mtmrp.SimStats, uint64, []byte) {
	t.Helper()
	var log bytes.Buffer
	var w *bytes.Buffer
	if traced {
		w = &log
	}
	s := d.simulate(t, w)
	return s.Stats(), s.Network().Digest(), log.Bytes()
}

// simulate runs the session to its end, digesting its frames and, if
// log is set, tracing them there.
func (d diffSession) simulate(t *testing.T, log *bytes.Buffer) *mtmrp.Session {
	t.Helper()
	topo := mtmrp.Grid()
	if d.random {
		var err error
		if topo, err = mtmrp.RandomTopology(d.nodes, d.side, 40, d.seed); err != nil {
			t.Fatal(err)
		}
	}
	rcv, err := mtmrp.PickReceivers(topo, 0, d.receivers, d.seed+1)
	if err != nil {
		t.Fatal(err)
	}
	sc := mtmrp.Scenario{
		Topo: topo, Source: 0, Receivers: rcv, Protocol: d.proto,
		N: 4, Delta: mtmrp.Millisecond, Seed: d.seed,
	}
	if d.edit != nil {
		d.edit(&sc)
	}
	if log != nil {
		sc.TraceWriter = log
	}
	s, err := mtmrp.NewSession(sc)
	if err != nil {
		t.Fatal(err)
	}
	s.Network().SetDigest(true)
	s.RunDiscovery(0)
	if _, err := s.RunData(5); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return s
}

// firstDiff names the first line where two traces differ; gotName and
// wantName label them.
func firstDiff(got, want []byte, gotName, wantName string) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(g), len(w)); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n  %s %s\n  %s %s", i+1, gotName, g[i], wantName, w[i])
		}
	}
	return fmt.Sprintf("%s logs %d lines, %s %d", gotName, len(g), wantName, len(w))
}

// diffMatrix is the differential tests' session set: six protocols ×
// {grid, random-200} × seeds 1–8.
func diffMatrix() []diffSession {
	protos := []mtmrp.Protocol{mtmrp.MTMRP, mtmrp.MTMRPNoPHS, mtmrp.DODMRP, mtmrp.ODMRP, mtmrp.Flooding, mtmrp.GMR}
	var sessions []diffSession
	for _, p := range protos {
		for _, random := range []bool{false, true} {
			for seed := uint64(1); seed <= 8; seed++ {
				sessions = append(sessions, diffSession{proto: p, random: random, seed: seed, nodes: 200, side: 200, receivers: 20})
			}
		}
	}
	return sessions
}

// TestCSMAMatchesPerSlotReference holds mac.CSMA's one-timer countdown
// to the per-slot countdown it replaced (csmaref_test.go): every session
// must put the same frames on the air and deliver them in the same order
// at the same instants, with the same uids — equal frame digests; on a
// mismatch the test reruns both traced and shows the first differing
// trace line — and count the same events and peak queue depth, in fewer
// queue entries. The tie sessions are those where countdowns that
// started at different instants expire at the same nanosecond; a fold
// that keys each expiry when its countdown starts sends them oldest
// first and reorders their frames.
func TestCSMAMatchesPerSlotReference(t *testing.T) {
	sessions := diffMatrix()
	tie := func(p mtmrp.Protocol, random bool, seed uint64) diffSession {
		if random {
			return diffSession{proto: p, random: true, seed: seed, nodes: 2000, side: 900, receivers: 40}
		}
		return diffSession{proto: p, seed: seed, nodes: 200, side: 200, receivers: 20}
	}
	ties := []diffSession{
		tie(mtmrp.Flooding, false, 4),
		tie(mtmrp.ODMRP, false, 4),
		tie(mtmrp.MTMRP, true, 2),
		tie(mtmrp.DODMRP, true, 2),
		tie(mtmrp.ODMRP, true, 2),
	}
	check := func(t *testing.T, d diffSession) {
		st, digest, _ := d.run(t, false)
		ref := func(traced bool) (mtmrp.SimStats, uint64, []byte) {
			defer network.UseReferenceCSMA()()
			return d.run(t, traced)
		}
		refSt, refDigest, _ := ref(false)
		if digest != refDigest {
			_, _, log := d.run(t, true)
			_, _, refLog := ref(true)
			t.Fatalf("frame traces differ at %s", firstDiff(log, refLog, "one timer", "per slot "))
		}
		if st.Processed != refSt.Processed || st.MaxPending != refSt.MaxPending {
			t.Errorf("events %d, peak queue %d; per slot: events %d, peak queue %d",
				st.Processed, st.MaxPending, refSt.Processed, refSt.MaxPending)
		}
		if st.Entries >= refSt.Entries {
			t.Errorf("%d queue entries, per slot %d: the fold saved none", st.Entries, refSt.Entries)
		}
	}
	for _, d := range sessions {
		t.Run(d.String(), func(t *testing.T) { check(t, d) })
	}
	for _, d := range ties {
		t.Run("tie/"+d.String(), func(t *testing.T) {
			if testing.Short() && d.random {
				t.Skip("2000-node session; skipped in -short")
			}
			check(t, d)
		})
	}
}

// TestLazyCarrierMatchesEager holds lazy carrier sense — fan members at
// nodes whose MAC does not listen folded into spans, queued again under
// their own keys when the MAC starts to contend — to the eager fan, which
// runs every carrier edge as an event (channel.Config.EagerCarrier). Every
// session must put the same frames on the air in the same order at the
// same instants (equal frame digests; on a mismatch both rerun traced and
// the first differing line is shown) and process the same number of
// events, while executing fewer and never queueing more at once. The
// matrix is diffMatrix plus one 2000-node random session and sessions
// that change what the fold depends on: the Ideal MAC (never listens),
// shadowing and bursty loss (members that fail to decode fold),
// crash and degradation faults, paced traffic with route refreshes (the
// data phase is scheduled from the clock the discovery drain leaves) and
// node motion.
func TestLazyCarrierMatchesEager(t *testing.T) {
	check := func(t *testing.T, d diffSession) {
		st, digest, _ := d.run(t, false)
		eager := func(traced bool) (mtmrp.SimStats, uint64, []byte) {
			defer network.UseEagerCarrier()()
			return d.run(t, traced)
		}
		ref, refDigest, _ := eager(false)
		if digest != refDigest {
			_, _, log := d.run(t, true)
			_, _, refLog := eager(true)
			t.Fatalf("frame traces differ at %s", firstDiff(log, refLog, "lazy ", "eager"))
		}
		if st.Processed != ref.Processed {
			t.Errorf("%d events processed, eager %d", st.Processed, ref.Processed)
		}
		if st.Executed >= ref.Executed || st.MaxPending > ref.MaxPending {
			t.Errorf("executed %d events, peak queue %d; eager: executed %d, peak queue %d",
				st.Executed, st.MaxPending, ref.Executed, ref.MaxPending)
		}
	}
	loss := mtmrp.DefaultLossModel()
	paced := func(sc *mtmrp.Scenario) {
		sc.Traffic = mtmrp.TrafficOptions{Interval: 20 * mtmrp.Millisecond, RefreshInterval: 50 * mtmrp.Millisecond}
	}
	variants := []diffSession{
		{proto: mtmrp.MTMRP, seed: 3, variant: "ideal", edit: func(sc *mtmrp.Scenario) {
			sc.Radio = mtmrp.RadioOptions{MAC: network.MACIdeal}
		}},
		{proto: mtmrp.ODMRP, random: true, seed: 3, variant: "shadowing", edit: func(sc *mtmrp.Scenario) {
			sc.Radio = mtmrp.RadioOptions{ShadowingSigmaDB: 4}
		}},
		{proto: mtmrp.DODMRP, seed: 5, variant: "lossy", edit: func(sc *mtmrp.Scenario) {
			sc.Faults = mtmrp.FaultOptions{Loss: &loss}
		}},
		{proto: mtmrp.MTMRP, random: true, seed: 4, variant: "faults", edit: func(sc *mtmrp.Scenario) {
			sc.Faults = mtmrp.FaultOptions{Loss: &loss, Schedule: fault.Schedule{
				{At: 2 * mtmrp.Millisecond, Node: 7, Kind: fault.LinkDegrade},
				{At: 3 * mtmrp.Millisecond, Node: 11, Kind: fault.NodeCrash},
			}}
		}},
		{proto: mtmrp.Flooding, seed: 2, variant: "paced", edit: paced},
		{proto: mtmrp.ODMRP, random: true, seed: 6, variant: "mobile", edit: func(sc *mtmrp.Scenario) {
			paced(sc)
			sc.Mobility = mtmrp.MobilityOptions{Model: mobility.RandomWaypoint, MaxSpeed: 10}
		}},
	}
	for _, d := range append(diffMatrix(), variants...) {
		if d.random {
			d.nodes, d.side = 200, 200
		}
		if d.receivers == 0 {
			d.receivers = 20
		}
		t.Run(d.String(), func(t *testing.T) { check(t, d) })
	}
	big := diffSession{proto: mtmrp.MTMRP, random: true, seed: 2, nodes: 2000, side: 900, receivers: 40}
	t.Run(big.String(), func(t *testing.T) {
		if testing.Short() {
			t.Skip("2000-node session; skipped in -short")
		}
		check(t, big)
	})
}

// TestCarrierCountsGridSeed4 pins the channel's carrier counters and the
// simulator's event counts for the session `mtmrsim -topo grid -seed 4
// -packets 5` runs. The eager fan runs 43,720 fan calls; lazy carrier
// sense runs 10,106 of them and folds the other 33,614, of which 123 are
// queued after all when their node's MAC starts to contend. Both process
// the same 49,683 events; the lazy fan executes 13,205 of them. The eager
// fan hands its radios 41,924 carrier edges; the lazy one tells only the
// listening radios, 620 edges of the 11,480 its busy counts go through.
func TestCarrierCountsGridSeed4(t *testing.T) {
	d := diffSession{proto: mtmrp.MTMRP, seed: 4, receivers: 20}
	type counts struct {
		fanCalls, folded, materialised, notified, processed, executed uint64
	}
	measure := func() counts {
		s := d.simulate(t, nil)
		cs, st := s.Network().Chan.Stats(), s.Stats()
		return counts{cs.FanCalls, cs.Folded, cs.Materialised, cs.Notified, st.Processed, st.Executed}
	}
	if got, want := measure(), (counts{10_106, 33_614, 123, 620, 49_683, 13_205}); got != want {
		t.Errorf("lazy: %+v, want %+v", got, want)
	}
	restore := network.UseEagerCarrier()
	defer restore()
	if got, want := measure(), (counts{43_720, 0, 0, 41_924, 49_683, 46_696}); got != want {
		t.Errorf("eager: %+v, want %+v", got, want)
	}
}
