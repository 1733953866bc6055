package experiment

import (
	"mtmrp/internal/mobility"
	"mtmrp/internal/sim"
)

// The defaults an omitted field takes. Each is declared once here and read
// both by the Go side (Scenario.normalize, GroupSizeSweep, FaultSweep,
// MobilitySweep, ...) and by the wire canonicalizers (RunSpec.Canonical
// and the sweep kinds), so a served spec and a direct call cannot disagree
// on what an omitted field means. The canonicalizers read the time
// defaults in milliseconds (Time.Millis), which is exact for every value
// below.

// Session defaults.
const (
	defaultN               = 4               // biased-backoff N
	defaultDelta           = sim.Millisecond // biased-backoff slot unit δ
	defaultPayloadLen      = 64              // DATA payload bytes
	defaultDataPackets     = 1
	defaultDiscoveryRounds = 2
	defaultMobilityGroups  = 4 // RPGM group count
)

// defaultMinSpeed is the speed-decay guard a moving session's MinSpeed
// defaults to.
func defaultMinSpeed(maxSpeed float64) float64 { return maxSpeed / 10 }

// Study defaults.
const (
	// defaultRuns is the Monte-Carlo round count of the paper's figures.
	defaultRuns = 100
	// defaultGroupSize is the receiver count of the evaluation point the
	// extension studies sweep around, and of a RunSpec.
	defaultGroupSize = 20
)

// The paced axis-point shape the fault and mobility studies share: 20
// rounds of 20 packets 50 ms apart, a 200 ms route refresh and a 300 ms
// forwarder expiry.
const (
	pacedRuns     = 20
	pacedPackets  = 20
	pacedInterval = 50 * sim.Millisecond
	pacedRefresh  = 200 * sim.Millisecond
	pacedExpiry   = 300 * sim.Millisecond
)

// Fault-study defaults: crash onsets fall in [1.2 s, 2 s) of the session.
const (
	defaultFaultStart  = 1200 * sim.Millisecond
	defaultFaultWindow = 800 * sim.Millisecond
)

// defaultFailFractions is the fault study's crash-probability axis.
func defaultFailFractions() []float64 { return []float64{0, 0.05, 0.1, 0.2, 0.3} }

// defaultMotion is the mobility study's motion model.
const defaultMotion = mobility.RandomWaypoint

// defaultSpeeds and defaultPauses are the mobility study's (speed, pause)
// axes in m/s and virtual time.
func defaultSpeeds() []float64  { return []float64{0, 5, 10, 20} }
func defaultPauses() []sim.Time { return []sim.Time{0, 500 * sim.Millisecond} }

// orDefault sets *v to d when *v is the zero value (for floats, either
// zero).
func orDefault[T comparable](v *T, d T) {
	var zero T
	if *v == zero {
		*v = d
	}
}
