package network_test

import (
	"bytes"
	"fmt"
	"testing"

	"mtmrp"
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
}

func (d diffSession) String() string {
	topo := "grid"
	if d.random {
		topo = fmt.Sprintf("random-%d", d.nodes)
	}
	return fmt.Sprintf("%v-%s-seed%d", d.proto, topo, d.seed)
}

// run simulates the session and returns its simulator counters and
// frame digest, and, when traced, its JSONL frame trace.
func (d diffSession) run(t *testing.T, traced bool) (mtmrp.SimStats, uint64, []byte) {
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
	var log bytes.Buffer
	if traced {
		sc.TraceWriter = &log
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
	return s.Stats(), s.Network().Digest(), log.Bytes()
}

// firstDiff names the first line where two traces differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(g), len(w)); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n  one timer %s\n  per slot  %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("one timer logs %d lines, per slot %d", len(g), len(w))
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
	protos := []mtmrp.Protocol{mtmrp.MTMRP, mtmrp.MTMRPNoPHS, mtmrp.DODMRP, mtmrp.ODMRP, mtmrp.Flooding, mtmrp.GMR}
	var sessions []diffSession
	for _, p := range protos {
		for _, random := range []bool{false, true} {
			for seed := uint64(1); seed <= 8; seed++ {
				sessions = append(sessions, diffSession{proto: p, random: random, seed: seed, nodes: 200, side: 200, receivers: 20})
			}
		}
	}
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
			t.Fatalf("frame traces differ at %s", firstDiff(log, refLog))
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
