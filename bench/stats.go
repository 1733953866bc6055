package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a timing may be reported at, highest
// first. The tail reported for a sample set is the highest one that still
// has at least minBeyond samples above it, so a tail is never read off a
// handful of outliers.
var tailCandidates = []float64{99.9, 99, 90, 50}

const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted values, or NaN for an empty set.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := rank(len(sorted), p) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps float error from pushing an exact rank up by one
// (99.9/100*10000 is 9990.000000000002).
func rank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// beyond counts the samples of a set of n that lie above its nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// tailPercentile returns the highest candidate percentile with at least
// minBeyond of n samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// quartiles summarises a sample set. Q1 and Q3 follow Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), so spreads
// computed here match the ones computed from result files with Python.
type quartiles struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func summarize(values []float64) quartiles {
	s := sortedCopy(values)
	q := quartiles{N: len(s)}
	switch len(s) {
	case 0:
		return q
	case 1:
		q.Q1, q.Median, q.Q3 = s[0], s[0], s[0]
		return q
	}
	q.Median = median(s)
	q.Q1 = exclusiveQuantile(s, 1, 4)
	q.Q3 = exclusiveQuantile(s, 3, 4)
	return q
}

// iqrShare is the interquartile distance as a share of the median.
func (q quartiles) iqrShare() float64 {
	if q.Median == 0 {
		return math.Inf(1)
	}
	return (q.Q3 - q.Q1) / math.Abs(q.Median)
}

// exclusiveQuantile is the i-th of the n-quantiles of sorted (len >= 2),
// interpolated exactly as Python's statistics.quantiles does by default.
func exclusiveQuantile(sorted []float64, i, n int) float64 {
	ld := len(sorted)
	m := ld + 1
	j := i * m / n
	j = min(max(j, 1), ld-1)
	delta := i*m - j*n
	return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / float64(n)
}

// median of an already sorted set.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// inUnit converts durations to float values in unit (ns, us, ms or s).
func inUnit(ds []time.Duration, unit string) []float64 {
	scale := map[string]time.Duration{"ns": time.Nanosecond, "us": time.Microsecond, "ms": time.Millisecond, "s": time.Second}[unit]
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(scale)
	}
	return out
}

// mannWhitney is the two-sided Mann-Whitney U test of a against b with the
// normal approximation and the tie correction. U counts the pairs in which
// the a value exceeds the b value (ties count one half); p is the
// two-sided p-value. Small samples make the approximation rough, which is
// why comparisons never rest on p alone.
func mannWhitney(a, b []float64) (u, z, p float64) {
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	n1, n2 := float64(len(a)), float64(len(b))
	n := n1 + n2
	var rankA, tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		avg := float64(i+j+1) / 2 // average of ranks i+1..j
		for k := i; k < j; k++ {
			if all[k].fromA {
				rankA += avg
			}
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	u = rankA - n1*(n1+1)/2
	mean := n1 * n2 / 2
	variance := n1 * n2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if variance <= 0 {
		return u, 0, 1
	}
	z = (u - mean) / math.Sqrt(variance)
	p = math.Erfc(math.Abs(z) / math.Sqrt2)
	return u, z, p
}
