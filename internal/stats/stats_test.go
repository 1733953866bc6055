package stats

import (
	"math"
	"testing"
	"testing/quick"

	"mtmrp/internal/rng"
)

func TestEmpty(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Std() != 0 || a.Min() != 0 || a.Max() != 0 || a.SEM() != 0 {
		t.Errorf("empty accumulator not all-zero: %+v", a.Summary())
	}
}

func TestSingle(t *testing.T) {
	var a Accumulator
	a.Add(5)
	if a.Mean() != 5 || a.Min() != 5 || a.Max() != 5 {
		t.Errorf("single-value stats wrong")
	}
	if a.Var() != 0 {
		t.Errorf("variance of one sample = %v", a.Var())
	}
}

func TestKnownValues(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.Mean() != 5 {
		t.Errorf("mean = %v", a.Mean())
	}
	// Sample variance with n-1: sum sq dev = 32, /7.
	if math.Abs(a.Var()-32.0/7) > 1e-12 {
		t.Errorf("var = %v", a.Var())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(100)
		xs := make([]float64, n)
		var a Accumulator
		for i := range xs {
			xs[i] = r.Range(-100, 100)
			a.Add(xs[i])
		}
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(n-1)
		return math.Abs(a.Mean()-mean) < 1e-9 && math.Abs(a.Var()-naiveVar) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCI95Shrinks(t *testing.T) {
	r := rng.New(1)
	var small, large Accumulator
	for i := 0; i < 10; i++ {
		small.Add(r.NormFloat64())
	}
	for i := 0; i < 1000; i++ {
		large.Add(r.NormFloat64())
	}
	if large.CI95() >= small.CI95() {
		t.Errorf("CI should shrink with n: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestSummaryString(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{1, 2, 3} {
		a.Add(x)
	}
	s := a.Summary()
	if s.N != 3 || s.Mean != 2 {
		t.Errorf("summary = %+v", s)
	}
	if got := s.String(); got != "2.000 ± 1.132 (n=3)" {
		t.Errorf("String() = %q", got)
	}
}

func TestMeanHelper(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil)")
	}
	if Mean([]float64{1, 3}) != 2 {
		t.Error("Mean")
	}
}
