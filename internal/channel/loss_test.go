package channel

import (
	"runtime"
	"testing"

	"mtmrp/internal/geom"
	"mtmrp/internal/radio"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
)

// lossPair builds a two-node in-range channel with the given loss setup.
func lossPair(t *testing.T, cfg Config) (*Channel, []*stubRadio, func()) {
	t.Helper()
	s, c, radios := build(t, []geom.Point{{X: 0, Y: 0}, {X: 30, Y: 0}}, cfg)
	return c, radios, func() { s.Run() }
}

func TestLossAlwaysBadDropsEverything(t *testing.T) {
	c, radios, run := lossPair(t, Config{
		Loss:     &LossConfig{PGoodBad: 1, PBadGood: 0, DropGood: 0, DropBad: 1},
		LossRand: rng.New(1),
	})
	for i := 0; i < 5; i++ {
		c.Transmit(0, hello(0))
		run()
	}
	if len(radios[1].frames) != 0 {
		t.Errorf("node 1 decoded %d frames through an always-bad link", len(radios[1].frames))
	}
	st := c.Stats()
	if st.LossDrops != 5 || st.Deliveries != 0 {
		t.Errorf("stats = %+v, want 5 loss drops, 0 deliveries", st)
	}
	// A dropped frame still occupies the medium: carrier on, carrier off.
	if len(radios[1].carrier) != 10 {
		t.Errorf("receiver saw %d carrier transitions, want 10", len(radios[1].carrier))
	}
}

func TestLossNilModelIsLossless(t *testing.T) {
	// A LossRand without a model must change nothing: no draws, no drops.
	c, radios, run := lossPair(t, Config{LossRand: rng.New(1)})
	c.Transmit(0, hello(0))
	run()
	if len(radios[1].frames) != 1 {
		t.Errorf("deliveries = %d, want 1", len(radios[1].frames))
	}
	if st := c.Stats(); st.LossDrops != 0 || st.DegradeDrops != 0 {
		t.Errorf("stats = %+v, want no loss accounting", st)
	}
}

func TestDegradedEndpointDrops(t *testing.T) {
	// Chain disabled (all-zero transition/drop probabilities) so only the
	// degradation path acts, with a certain drop.
	c, radios, run := lossPair(t, Config{
		Loss:     &LossConfig{DegradedDrop: 1},
		LossRand: rng.New(1),
	})
	c.Transmit(0, hello(0))
	run()
	if len(radios[1].frames) != 1 {
		t.Fatalf("pre-degradation deliveries = %d, want 1", len(radios[1].frames))
	}
	c.SetDegraded(1, true)
	if !c.Degraded(1) {
		t.Fatal("Degraded(1) = false after SetDegraded")
	}
	c.Transmit(0, hello(0))
	run()
	if len(radios[1].frames) != 1 {
		t.Errorf("degraded receiver decoded a frame")
	}
	if st := c.Stats(); st.DegradeDrops != 1 {
		t.Errorf("DegradeDrops = %d, want 1", st.DegradeDrops)
	}
	c.SetDegraded(1, false)
	c.Transmit(0, hello(0))
	run()
	if len(radios[1].frames) != 2 {
		t.Errorf("restored receiver did not decode")
	}
}

func TestSetLossResetsChainState(t *testing.T) {
	// Drive the 0->1 chain into Bad, then swap in a model that only drops
	// while Bad: a stale chain would keep dropping, a reset one delivers.
	bad := &LossConfig{PGoodBad: 1, PBadGood: 0, DropGood: 0, DropBad: 1}
	c, radios, run := lossPair(t, Config{Loss: bad, LossRand: rng.New(1)})
	c.Transmit(0, hello(0))
	run()
	if len(radios[1].frames) != 0 {
		t.Fatal("frame survived an always-bad chain")
	}
	c.SetLoss(&LossConfig{PGoodBad: 0, PBadGood: 0, DropGood: 0, DropBad: 1})
	c.Transmit(0, hello(0))
	run()
	if len(radios[1].frames) != 1 {
		t.Error("SetLoss did not reset the chain to Good")
	}
}

func TestResetClearsLossState(t *testing.T) {
	cfg := DefaultLossConfig()
	c, _, run := lossPair(t, Config{Loss: &cfg, LossRand: rng.New(1)})
	c.SetDegraded(0, true)
	c.Transmit(0, hello(0))
	run()
	c.Reset(c.links)
	if c.Degraded(0) {
		t.Error("Reset left node 0 degraded")
	}
	if n := c.geBad.Len(); n != 0 {
		t.Errorf("Reset left %d link chains recorded", n)
	}
	if st := c.Stats(); st.LossDrops != 0 || st.DegradeDrops != 0 {
		t.Errorf("Reset left stats %+v", st)
	}
}

func TestLossDeterministicUnderSeed(t *testing.T) {
	// Same seed, same transmission sequence: identical outcomes, including
	// the exact number of chain-induced drops.
	runOnce := func() Stats {
		cfg := DefaultLossConfig()
		c, _, run := lossPair(t, Config{Loss: &cfg, LossRand: rng.New(42)})
		for i := 0; i < 200; i++ {
			c.Transmit(0, hello(0))
			run()
		}
		return c.Stats()
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Errorf("same-seed runs diverged: %+v vs %+v", a, b)
	}
	if a.LossDrops == 0 || a.Deliveries == 0 {
		t.Errorf("default model should both drop and deliver over 200 frames: %+v", a)
	}
}

func TestLossBurstiness(t *testing.T) {
	// With DropBad = 1 and DropGood = 0 the drop pattern mirrors the chain
	// state, so consecutive drops should cluster: the number of distinct
	// bursts must be well under the number of dropped frames.
	cfg := DefaultLossConfig()
	c, radios, run := lossPair(t, Config{Loss: &cfg, LossRand: rng.New(7)})
	const frames = 400
	got := make([]bool, frames) // delivered?
	for i := 0; i < frames; i++ {
		before := len(radios[1].frames)
		c.Transmit(0, hello(0))
		run()
		got[i] = len(radios[1].frames) > before
	}
	drops, bursts := 0, 0
	for i, ok := range got {
		if !ok {
			drops++
			if i == 0 || got[i-1] {
				bursts++
			}
		}
	}
	if drops == 0 {
		t.Fatal("no drops over 400 frames at ~14% stationary loss")
	}
	// Mean burst length 1/PBadGood = 4 frames; allow generous slack but
	// reject a memoryless pattern (mean burst length ~1).
	if mean := float64(drops) / float64(bursts); mean < 1.5 {
		t.Errorf("mean burst length %.2f (drops=%d bursts=%d): losses not bursty", mean, drops, bursts)
	}
}

func TestSetLossWithoutRandPanics(t *testing.T) {
	c, _, _ := lossPair(t, Config{})
	defer func() {
		if recover() == nil {
			t.Error("SetLoss without LossRand should panic")
		}
	}()
	cfg := DefaultLossConfig()
	c.SetLoss(&cfg)
}

// TestSetLossMemoryIsSparse is the regression test for the O(n²) loss
// state: installing the loss model on a 20k-node network used to
// allocate one Bad bit per ordered node pair (~48 MiB), before the first
// frame. Chain state now grows with the links frames actually cross.
func TestSetLossMemoryIsSparse(t *testing.T) {
	const n = 20_000
	pts := randomField(n, 20_000, rng.New(3)) // sparse: the table stays small
	c := NewWithTable(sim.New(), NewLinkTable(pts, radio.MustDefault80211Params(40, 2.2)),
		Config{LossRand: rng.New(1)})
	cfg := DefaultLossConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.SetLoss(&cfg)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("SetLoss on %d nodes allocated %d bytes, want < 1 MiB", n, got)
	}
}
