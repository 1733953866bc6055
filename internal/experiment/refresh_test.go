package experiment

import (
	"testing"

	"mtmrp/internal/rng"
	"mtmrp/internal/topology"
)

// TestRefreshHealsOrphanedTrees is a regression test for a failure mode
// found during reproduction: with a single JoinQuery flood, one collision
// in the JoinReply phase can orphan a junction node — it carries the
// forwarder flag, so later reply chains stop at it ("already a forwarder",
// Algorithm 2), yet its own path to the source never completed. Seed 2010
// on the paper's random topology delivered 1/15 receivers this way. A
// second discovery round (ODMRP-style refresh) heals it.
func TestRefreshHealsOrphanedTrees(t *testing.T) {
	round := rng.New(2010).Derive("snapshot-random-15")
	topo, err := topology.PaperRandom(round.Derive("topology"))
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := topo.PickReceivers(0, 15, round.Derive("receivers"))
	if err != nil {
		t.Fatal(err)
	}
	base := Scenario{
		Topo: topo, Source: 0, Receivers: rcv, Protocol: MTMRP,
		Seed: round.Derive("run").Uint64(),
	}

	single := base
	single.Traffic.DiscoveryRounds = 1
	out1, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}

	double := base
	double.Traffic.DiscoveryRounds = 2
	out2, err := Run(double)
	if err != nil {
		t.Fatal(err)
	}

	// The pathological single-round outcome (7% on this seed) must be
	// healed by the refresh.
	if out2.Result.DeliveryRatio < 0.9 {
		t.Errorf("refresh did not heal: delivery %.2f", out2.Result.DeliveryRatio)
	}
	if out2.Result.DeliveryRatio < out1.Result.DeliveryRatio {
		t.Errorf("refresh made things worse: %.2f -> %.2f",
			out1.Result.DeliveryRatio, out2.Result.DeliveryRatio)
	}
}

// TestDiscoveryRoundsDefault checks that the default applies two rounds
// (visible through the doubled JoinQuery count).
func TestDiscoveryRoundsDefault(t *testing.T) {
	topo := topology.PaperGrid()
	out, err := Run(Scenario{
		Topo: topo, Source: 0, Receivers: []int{55}, Protocol: MTMRP, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 100 nodes flood twice.
	if got := out.Result.TxByType[1]; got < 150 {
		t.Errorf("JoinQuery transmissions = %d, want ~200 (two rounds)", got)
	}
}
