package experiment

import (
	"testing"

	"mtmrp/internal/core"
)

func TestShadowingSweepSmall(t *testing.T) {
	res, err := ShadowingSweep(ShadowingConfig{
		Topo: GridTopo, GroupSize: 10, SigmasDB: []float64{0, 1}, Runs: 3, Seed: 6,
		Protocols: []Protocol{MTMRP, ODMRP},
	})
	if err != nil {
		t.Fatal(err)
	}
	const overhead, delivery = 0, 1 // metric indexes
	for pi, p := range []Protocol{MTMRP, ODMRP} {
		if len(res.Cells[pi]) != 2 || res.Cells[pi][0][overhead].N != 3 {
			t.Fatalf("%v: malformed result", p)
		}
		// Mild fading (1 dB) must not collapse delivery: the link-quality
		// gate keeps trees on solid links.
		if s := res.Cells[pi][1][delivery]; s.Mean < 0.6 {
			t.Errorf("%v at 1 dB: delivery %.2f collapsed", p, s.Mean)
		}
	}
}

func TestShadowedChannelStillDelivers(t *testing.T) {
	sc := gridScenario(t, MTMRP, 9, 10)
	sc.Radio.ShadowingSigmaDB = 1
	out, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.DeliveryRatio < 0.6 {
		t.Errorf("delivery %.2f under 1 dB shadowing", out.Result.DeliveryRatio)
	}
}

// TestQualityGateMatters demonstrates why MinHelloCount exists: without
// the gate, fading-channel trees are built over lucky long links whose
// reverse JoinReplys are lost, and delivery collapses.
func TestQualityGateMatters(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison")
	}
	delivery := func(minHello int) float64 {
		total := 0.0
		const runs = 8
		for s := uint64(0); s < runs; s++ {
			sc := gridScenario(t, MTMRP, 50+s, 15)
			sc.Radio.ShadowingSigmaDB = 1
			c := core.DefaultConfig()
			c.Proto.MinHelloCount = minHello
			sc.Core = &c
			out, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			total += out.Result.DeliveryRatio
		}
		return total / runs
	}
	gated := delivery(2)
	ungated := delivery(0)
	if gated <= ungated {
		t.Errorf("quality gate should improve fading delivery: gated %.2f vs ungated %.2f",
			gated, ungated)
	}
}
