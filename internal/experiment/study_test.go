package experiment

import (
	"errors"
	"testing"

	"mtmrp/internal/sim"
)

// TestDriversRejectOutOfRangeAxis: every driver's axis is checked before
// any job starts, so an out-of-range point is an error — never a worker
// panic, a NaN table or a silently meaningless run.
func TestDriversRejectOutOfRangeAxis(t *testing.T) {
	sweepErr := func(_ any, err error) error { return err }
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"group-size: size 0", func() error { return sweepErr(GroupSizeSweep(SweepConfig{Sizes: []int{0}, Runs: 1})) }},
		{"group-size: N -1", func() error { return sweepErr(GroupSizeSweep(SweepConfig{Sizes: []int{5}, Runs: 1, N: -1})) }},
		{"group-size: delta -1ms", func() error {
			return sweepErr(GroupSizeSweep(SweepConfig{Sizes: []int{5}, Runs: 1, Delta: -sim.Millisecond}))
		}},
		{"tuning: N -1", func() error { return sweepErr(TuningSweep(TuningConfig{Ns: []int{-1}, Runs: 1})) }},
		{"tuning: delta -1ms", func() error {
			return sweepErr(TuningSweep(TuningConfig{Deltas: []sim.Time{-sim.Millisecond}, Runs: 1}))
		}},
		{"ablation: group -3", func() error { return sweepErr(AblationSweep(AblationConfig{GroupSize: -3, Runs: 1})) }},
		{"ablation: N -2", func() error { return sweepErr(AblationSweep(AblationConfig{N: -2, Runs: 1})) }},
		{"amortize: packets 0", func() error { return sweepErr(AmortizeSweep(AmortizeConfig{Packets: []int{0}, Runs: 1})) }},
		{"amortize: packets -3", func() error { return sweepErr(AmortizeSweep(AmortizeConfig{Packets: []int{-3}, Runs: 1})) }},
		{"shadowing: sigma -2", func() error {
			return sweepErr(ShadowingSweep(ShadowingConfig{SigmasDB: []float64{-2}, Runs: 1}))
		}},
		{"fault: fraction 1.5", func() error {
			return sweepErr(FaultSweep(FaultConfig{FailFractions: []float64{1.5}, Runs: 1}))
		}},
		{"fault: fraction -0.1", func() error {
			return sweepErr(FaultSweep(FaultConfig{FailFractions: []float64{-0.1}, Runs: 1}))
		}},
		{"mobility: speed -5", func() error {
			return sweepErr(MobilitySweep(MobilityConfig{Speeds: []float64{-5}, Runs: 1}))
		}},
		{"mobility: pause -1ms", func() error {
			return sweepErr(MobilitySweep(MobilityConfig{Pauses: []sim.Time{-sim.Millisecond}, Runs: 1}))
		}},
	} {
		if err := tc.run(); !errors.Is(err, errAxis) {
			t.Errorf("%s: err = %v, want an axis error", tc.name, err)
		}
	}
}
