// Package stats provides the summary statistics the Monte-Carlo harness
// reports: mean, standard deviation, 95% confidence intervals, and min/max,
// computed online with Welford's algorithm so arbitrarily many runs stream
// through constant memory.
package stats

import (
	"fmt"
	"math"
)

// Accumulator computes running summary statistics.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation in.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 with no observations).
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance.
func (a *Accumulator) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Var()) }

// SEM returns the standard error of the mean.
func (a *Accumulator) SEM() float64 {
	if a.n == 0 {
		return 0
	}
	return a.Std() / math.Sqrt(float64(a.n))
}

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval for the mean. With the paper's 100 runs per point the normal
// approximation is adequate.
func (a *Accumulator) CI95() float64 { return 1.96 * a.SEM() }

// Min returns the smallest observation (0 with no observations).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}

// Max returns the largest observation (0 with no observations).
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// Summary is a frozen snapshot of an Accumulator.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	CI95 float64
	Min  float64
	Max  float64
}

// Summary freezes the accumulator.
func (a *Accumulator) Summary() Summary {
	return Summary{N: a.n, Mean: a.mean, Std: a.Std(), CI95: a.CI95(), Min: a.Min(), Max: a.Max()}
}

// String formats the summary as "mean ± ci95 (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", s.Mean, s.CI95, s.N)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
