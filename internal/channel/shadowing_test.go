package channel

import (
	"testing"

	"mtmrp/internal/geom"
	"mtmrp/internal/packet"
	"mtmrp/internal/radio"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
)

// shadowRig builds a two-node channel with the given shadowing sigma.
func shadowRig(t *testing.T, dist float64, sigma float64, seed uint64) (*sim.Simulator, *Channel, *stubRadio) {
	t.Helper()
	s := sim.New()
	params := radio.MustDefault80211Params(40, 2.2)
	c := NewWithTable(s, NewLinkTable([]geom.Point{{X: 0, Y: 0}, {X: dist, Y: 0}}, params), Config{
		ShadowingSigmaDB: sigma,
		Rand:             rng.New(seed),
	})
	return s, c, stubs(c, 2)[1]
}

func TestShadowingRequiresRand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shadowing without Rand should panic")
		}
	}()
	s := sim.New()
	NewWithTable(s, NewLinkTable([]geom.Point{{X: 0, Y: 0}}, radio.MustDefault80211Params(40, 2.2)),
		Config{ShadowingSigmaDB: 4})
}

func TestShadowingZeroSigmaIsDeterministicDisc(t *testing.T) {
	// Within range: always delivered; beyond: never. Identical to the
	// non-shadowed channel.
	s, c, rx := shadowRig(t, 39, 0, 1)
	for i := 0; i < 20; i++ {
		c.Transmit(0, packet.NewHello(0, nil))
		s.Run()
	}
	if len(rx.frames) != 20 {
		t.Errorf("sigma=0 within range: %d/20 delivered", len(rx.frames))
	}
}

func TestShadowingEdgeLinkIsCoinFlip(t *testing.T) {
	// Exactly at the range boundary the mean margin is 0 dB, so a heavy
	// shadowing draw succeeds about half the time.
	s, c, rx := shadowRig(t, 40, 6, 2)
	const n = 400
	for i := 0; i < n; i++ {
		c.Transmit(0, packet.NewHello(0, nil))
		s.Run()
	}
	got := len(rx.frames)
	if got < n/3 || got > 2*n/3 {
		t.Errorf("boundary link delivered %d/%d, want ~half", got, n)
	}
}

func TestShadowingStrongLinkRarelyFails(t *testing.T) {
	// 20 m link: ~6 dB margin; at sigma=2 failures are ~0.1%.
	s, c, rx := shadowRig(t, 20, 2, 3)
	const n = 300
	for i := 0; i < n; i++ {
		c.Transmit(0, packet.NewHello(0, nil))
		s.Run()
	}
	if len(rx.frames) < n*95/100 {
		t.Errorf("strong link delivered only %d/%d", len(rx.frames), n)
	}
}

func TestShadowingLongLinkOccasionallyDecodes(t *testing.T) {
	// 55 m: outside the 40 m disc but inside carrier range; with heavy
	// shadowing a few frames get through — the effect that motivates the
	// protocols' link-quality gate.
	s, c, rx := shadowRig(t, 55, 8, 4)
	const n = 400
	for i := 0; i < n; i++ {
		c.Transmit(0, packet.NewHello(0, nil))
		s.Run()
	}
	if len(rx.frames) == 0 {
		t.Error("55 m link never decoded under 8 dB shadowing")
	}
	if len(rx.frames) > n/2 {
		t.Errorf("55 m link decoded %d/%d — too reliable", len(rx.frames), n)
	}
}

func TestShadowingDeterministicPerSeed(t *testing.T) {
	run := func() int {
		s, c, rx := shadowRig(t, 40, 4, 42)
		for i := 0; i < 50; i++ {
			c.Transmit(0, packet.NewHello(0, nil))
			s.Run()
		}
		return len(rx.frames)
	}
	if run() != run() {
		t.Error("same seed produced different fading outcomes")
	}
}
