// Package radio models the physical layer: transmit power, antenna
// parameters, propagation loss, and the receive / carrier-sense power
// thresholds that turn continuous signal strength into the disc-shaped
// connectivity the paper assumes.
//
// It reproduces ns-2's wireless PHY conventions (the paper simulated with
// ns-2's TwoRayGround model, shadowing disabled): Friis free-space loss up
// to the crossover distance, two-ray ground reflection beyond it. Given a
// target transmission range (40 m in the paper) the package derives the
// matching RXThresh, exactly how ns-2 users compute thresholds.
package radio

import (
	"errors"
	"math"
)

// SpeedOfLight in m/s, used for propagation delay and wavelength.
const SpeedOfLight = 299792458.0

// TwoRayGround is the two-ray ground-reflection model used by the paper
// (Eq. 5): beyond the crossover distance,
//
//	Pr = Pt * Gt * Gr * ht^2 * hr^2 / (d^4 * L)
//
// Below the crossover distance the ground-reflected ray has not yet formed
// a stable interference pattern and Friis is used instead, matching ns-2.
// It is the one propagation model: Params holds it by value, so a received
// power is a direct call and two Params compare with ==.
type TwoRayGround struct {
	Gt, Gr float64 // antenna gains (paper: 1, 1)
	Ht, Hr float64 // antenna heights in meters (paper: 1.5, 1.5)
	L      float64 // loss factor (paper: 1)
	Lambda float64 // wavelength, used only for the crossover distance
}

// NewTwoRayGround returns the model with the paper's parameters
// (G=1, h=1.5 m, L=1) at the given carrier frequency.
func NewTwoRayGround(freqHz float64) TwoRayGround {
	return TwoRayGround{
		Gt: 1, Gr: 1,
		Ht: 1.5, Hr: 1.5,
		L:      1,
		Lambda: SpeedOfLight / freqHz,
	}
}

// Crossover returns the distance at which the two-ray formula takes over
// from Friis: d_c = 4*pi*ht*hr / lambda.
func (m TwoRayGround) Crossover() float64 {
	return 4 * math.Pi * m.Ht * m.Hr / m.Lambda
}

// ReceivedPower returns the power in Watts arriving at distance d
// (meters) from a transmit power pt (Watts).
func (m TwoRayGround) ReceivedPower(pt, d float64) float64 {
	if d <= 0 {
		return pt
	}
	if d < m.Crossover() {
		den := 4 * math.Pi * d / m.Lambda
		return pt * m.Gt * m.Gr / (den * den * m.L)
	}
	return pt * m.Gt * m.Gr * m.Ht * m.Ht * m.Hr * m.Hr / (d * d * d * d * m.L)
}

// Params bundles every PHY constant a node radio needs.
type Params struct {
	Model    TwoRayGround
	TxPower  float64 // transmit power in Watts
	RXThresh float64 // minimum power for successful reception (Watts)
	CSThresh float64 // minimum power to sense the channel busy (Watts)
	BitRate  float64 // channel bit rate in bit/s (802.11b broadcast: 2 Mb/s)
}

// Errors returned by the constructors.
var (
	ErrBadRange = errors.New("radio: transmission range must be positive")
	ErrBadRatio = errors.New("radio: carrier-sense range must be >= transmission range")
)

// Default80211Params mirrors the paper's setup: two-ray ground at 914 MHz
// (the ns-2 default WaveLAN carrier), ns-2's default transmit power, an
// RXThresh derived from the requested transmission range, and a carrier-
// sense range csRatio times larger (ns-2's default 550 m/250 m = 2.2).
func Default80211Params(txRange, csRatio float64) (Params, error) {
	if txRange <= 0 {
		return Params{}, ErrBadRange
	}
	if csRatio < 1 {
		return Params{}, ErrBadRatio
	}
	m := NewTwoRayGround(914e6)
	const txPower = 0.28183815 // Watts, ns-2 default (24.5 dBm)
	p := Params{
		Model:    m,
		TxPower:  txPower,
		RXThresh: m.ReceivedPower(txPower, txRange),
		CSThresh: m.ReceivedPower(txPower, txRange*csRatio),
		BitRate:  2e6,
	}
	return p, nil
}

// MustDefault80211Params is Default80211Params for static configuration;
// it panics on invalid arguments.
func MustDefault80211Params(txRange, csRatio float64) Params {
	p, err := Default80211Params(txRange, csRatio)
	if err != nil {
		panic(err)
	}
	return p
}

// TxRange numerically inverts the propagation model to recover the maximum
// distance at which reception succeeds. Used by tests and by topology code
// that wants the effective disc radius.
func (p Params) TxRange() float64 {
	return p.rangeFor(p.RXThresh)
}

// CSRange returns the maximum distance at which the carrier is sensed.
func (p Params) CSRange() float64 {
	return p.rangeFor(p.CSThresh)
}

func (p Params) rangeFor(thresh float64) float64 {
	// Power decreases monotonically with distance, so bisection finds the
	// threshold crossing whatever the model's parameters.
	lo, hi := 0.0, 1.0
	for p.Model.ReceivedPower(p.TxPower, hi) >= thresh {
		hi *= 2
		if hi > 1e7 {
			return math.Inf(1)
		}
	}
	for i := 0; i < 128; i++ {
		mid := (lo + hi) / 2
		if p.Model.ReceivedPower(p.TxPower, mid) >= thresh {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TxDuration returns the time in seconds to transmit size bytes at the
// configured bit rate, including an 802.11-style PLCP preamble+header
// overhead of 192 us.
func (p Params) TxDuration(sizeBytes int) float64 {
	const plcpOverhead = 192e-6
	return plcpOverhead + float64(sizeBytes*8)/p.BitRate
}

// PropDelay returns the propagation delay in seconds over distance d.
func PropDelay(d float64) float64 { return d / SpeedOfLight }
