package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 7}, 99); got != 7 {
		t.Errorf("p99 of two samples = %g, want the larger", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// The quartiles match Python's statistics.quantiles(values, n=4), which
// is how the spread of result files is computed elsewhere.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5.5, 1.25, 9, 3, 7, 2}, 1.8125, 4.25, 7.5},
		{[]float64{4}, 4, 4, 4},
	} {
		q := summarize(c.in)
		if q.N != len(c.in) || q.Q1 != c.q1 || q.Median != c.m || q.Q3 != c.q3 {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.in, q, c.q1, c.m, c.q3)
		}
	}
	if got := summarize([]float64{1, 2, 3, 4}).iqrShare(); got != 1 {
		t.Errorf("iqrShare = %g, want 1", got)
	}
}

func TestMannWhitney(t *testing.T) {
	u, z, p := mannWhitney([]float64{1, 2, 3}, []float64{4, 5, 6})
	if u != 0 || z >= 0 || math.Abs(p-0.0495) > 0.001 {
		t.Errorf("separated samples: U=%g z=%g p=%g, want U=0, z<0, p≈0.0495", u, z, p)
	}
	if u, _, p := mannWhitney([]float64{1, 1, 1}, []float64{1, 1, 1}); u != 4.5 || p != 1 {
		t.Errorf("all ties: U=%g p=%g, want U=4.5 p=1", u, p)
	}
}

func TestCompareRule(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	pairs := func(n int, base, next func(i int) float64) (a, b []observation) {
		for i := 0; i < n; i++ {
			ta, tb := int64(2*i), int64(2*i+1)
			if i%2 == 1 {
				ta, tb = tb, ta
			}
			a = append(a, observation{base(i), ta})
			b = append(b, observation{next(i), tb})
		}
		return a, b
	}
	jitter := func(v float64) func(int) float64 { return func(i int) float64 { return v + float64(i%3)*0.01 } }

	a, b := pairs(10, jitter(10), jitter(8))
	if c := compareSeries(lower, a, b); c.gain != "gain" || c.verdict != "ok" {
		t.Errorf("clear improvement: gain %q verdict %q", c.gain, c.verdict)
	}
	a, b = pairs(5, jitter(10), jitter(8))
	if c := compareSeries(lower, a, b); c.ratio[:4] != "null" || c.verdict != "ok" {
		t.Errorf("five pairs: ratio %q verdict %q, want a null ratio and ok", c.ratio, c.verdict)
	}
	a, b = pairs(10, jitter(10), jitter(12))
	if c := compareSeries(lower, a, b); c.verdict != "regression" || c.gain != "no gain" {
		t.Errorf("20%% slower: gain %q verdict %q", c.gain, c.verdict)
	}
	a, b = pairs(10, func(i int) float64 { return float64(1 + i%2*9) }, jitter(5))
	if c := compareSeries(lower, a, b); c.verdict != "unresolved" {
		t.Errorf("base spread wider than the bound: verdict %q, want unresolved", c.verdict)
	}
	a, b = pairs(10, jitter(10), jitter(8))
	b[3].start, a[3].start = a[3].start, b[3].start
	if c := compareSeries(lower, a, b); c.ratio[:4] != "null" {
		t.Errorf("non-alternating pairs: ratio %q, want null", c.ratio)
	}
}

// A workload whose runs all fail on the new side drops out of the metric
// comparison, so the run counts themselves must fail compare.
func TestCompareRunsGatesFailures(t *testing.T) {
	good := func() *side {
		s := &side{runs: 10, attempted: 100, metrics: map[string][]observation{}}
		for i := 0; i < 10; i++ {
			s.metrics["latency_p50_ms"] = append(s.metrics["latency_p50_ms"], observation{10, int64(i)})
		}
		return s
	}
	failed := &side{runs: 10, failedRuns: 10, attempted: 100, failed: 10, metrics: map[string][]observation{}}
	invalid := &side{runs: 10, invalidRuns: 10, attempted: 100, metrics: map[string][]observation{}}
	for _, c := range []struct {
		name  string
		base  runSet
		next  runSet
		worse bool
	}{
		{"same", runSet{"fig5": good()}, runSet{"fig5": good()}, false},
		{"every new run failed", runSet{"fig5": good()}, runSet{"fig5": failed}, true},
		{"every new run invalid", runSet{"serve-mix": good()}, runSet{"serve-mix": invalid}, true},
		{"missing on the new side", runSet{"fig5": good(), "dynamics": good()}, runSet{"fig5": good()}, true},
		{"only on the new side", runSet{"fig5": good()}, runSet{"fig5": good(), "scale-10k": good()}, true},
	} {
		var out strings.Builder
		if got := compareRuns(c.base, c.next, &out); got != c.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, got, c.worse, out.String())
		}
	}
}

func TestSplitSides(t *testing.T) {
	if _, _, ok := splitSides([]string{"a.json", "b.json"}); ok {
		t.Error("accepted a list without --")
	}
	base, next, ok := splitSides([]string{"a.json", "--", "b.json", "c.json"})
	if !ok || len(base) != 1 || len(next) != 2 {
		t.Errorf("split = %v %v %v", base, next, ok)
	}
}

// The reference work is fixed, so every call does the same work, and a
// host at half the reference speed halves every rescaled timing.
func TestReferenceWork(t *testing.T) {
	if a, b := refWork(), refWork(); a != b {
		t.Errorf("refWork returned %d then %d", a, b)
	}
	if f := refFactor(computeNominal, []time.Duration{computeNominal, computeNominal}); f != 1 {
		t.Errorf("factor at the reference speed = %g, want 1", f)
	}
	if f := refFactor(computeNominal, []time.Duration{computeNominal, 3 * computeNominal}); f != 0.5 {
		t.Errorf("factor between readings of 1x and 3x the nominal time = %g, want 0.5", f)
	}
	if f := refFactor(computeNominal, []time.Duration{computeNominal, 2 * computeNominal, 3 * computeNominal}); f != 0.5 {
		t.Errorf("factor over readings of 1x, 2x and 3x the nominal time = %g, want 0.5", f)
	}
}

func TestTailOf(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	// Five jobs on two workers: the tail starts when job 3 completes.
	if got := tailOf(ms(10, 40, 20, 30, 50), 60*time.Millisecond, 2); got != 0.03 {
		t.Errorf("tail = %g s, want 0.03", got)
	}
	if got := tailOf(ms(10), 15*time.Millisecond, 2); got != 0.015 {
		t.Errorf("tail with fewer jobs than workers = %g s, want the whole wall", got)
	}
}
