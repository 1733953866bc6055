package radio

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTwoRayInverseFourth(t *testing.T) {
	m := NewTwoRayGround(914e6)
	d := m.Crossover() * 2
	p1 := m.ReceivedPower(1, d)
	p2 := m.ReceivedPower(1, 2*d)
	if math.Abs(p1/p2-16) > 1e-9 {
		t.Errorf("two-ray should fall as 1/d^4 beyond crossover: ratio = %v", p1/p2)
	}
}

func TestTwoRayUsesFriisBelowCrossover(t *testing.T) {
	m := NewTwoRayGround(914e6)
	d := m.Crossover() / 2
	// Friis: Pr = Pt * Gt * Gr * lambda^2 / ((4*pi*d)^2 * L).
	den := 4 * math.Pi * d / m.Lambda
	if m.ReceivedPower(1, d) != m.Gt*m.Gr/(den*den*m.L) {
		t.Error("below crossover, two-ray must equal Friis")
	}
}

func TestTwoRayContinuousAtCrossover(t *testing.T) {
	m := NewTwoRayGround(914e6)
	dc := m.Crossover()
	below := m.ReceivedPower(1, dc*(1-1e-9))
	above := m.ReceivedPower(1, dc)
	if math.Abs(below-above)/above > 1e-6 {
		t.Errorf("discontinuity at crossover: %v vs %v", below, above)
	}
}

func TestCrossoverValue(t *testing.T) {
	m := NewTwoRayGround(914e6)
	// 4*pi*1.5*1.5 / (c/914e6) ≈ 86.2 m — safely above the paper's 40 m
	// range, so in-field links are effectively Friis; the model still
	// matters for the carrier-sense disc.
	want := 4 * math.Pi * 1.5 * 1.5 / (SpeedOfLight / 914e6)
	if math.Abs(m.Crossover()-want) > 1e-9 {
		t.Errorf("crossover = %v, want %v", m.Crossover(), want)
	}
}

func TestZeroDistance(t *testing.T) {
	if got := NewTwoRayGround(914e6).ReceivedPower(0.5, 0); got != 0.5 {
		t.Errorf("two-ray at d=0: %v", got)
	}
}

func TestMonotoneDecreasing(t *testing.T) {
	f := func(d1, d2 float64) bool {
		d1 = math.Abs(math.Mod(d1, 1000)) + 0.001
		d2 = math.Abs(math.Mod(d2, 1000)) + 0.001
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		m := NewTwoRayGround(914e6)
		return m.ReceivedPower(1, d1) >= m.ReceivedPower(1, d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultParamsRangeInversion(t *testing.T) {
	p, err := Default80211Params(40, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	if r := p.TxRange(); math.Abs(r-40) > 0.01 {
		t.Errorf("TxRange() = %v, want 40", r)
	}
	if r := p.CSRange(); math.Abs(r-88) > 0.01 {
		t.Errorf("CSRange() = %v, want 88", r)
	}
}

func TestParamErrors(t *testing.T) {
	if _, err := Default80211Params(0, 2); err != ErrBadRange {
		t.Errorf("want ErrBadRange, got %v", err)
	}
	if _, err := Default80211Params(40, 0.5); err != ErrBadRatio {
		t.Errorf("want ErrBadRatio, got %v", err)
	}
}

func TestMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustDefault80211Params should panic on bad input")
		}
	}()
	MustDefault80211Params(-1, 2)
}

func TestTxDuration(t *testing.T) {
	p := MustDefault80211Params(40, 2.2)
	// 100 bytes at 2 Mb/s = 400 us + 192 us preamble.
	want := 192e-6 + 800.0/2e6
	if got := p.TxDuration(100); math.Abs(got-want) > 1e-12 {
		t.Errorf("TxDuration(100) = %v, want %v", got, want)
	}
	if p.TxDuration(0) != 192e-6 {
		t.Error("zero-byte frame should still cost the preamble")
	}
}

func TestPropDelay(t *testing.T) {
	// 300 m ≈ 1 us.
	if d := PropDelay(299.792458); math.Abs(d-1e-6) > 1e-15 {
		t.Errorf("PropDelay = %v", d)
	}
}
