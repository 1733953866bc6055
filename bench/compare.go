package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// compareMain implements `bench compare BASE.json... -- NEW.json...`. For
// every workload it prints each side's run count, failed and invalid runs
// and error count, then for every declared metric each side's median and
// quartiles, the rule for claiming a gain (at least ten pairs run in
// alternating order, the new side winning at least nine in ten, the medians
// further apart than the base's interquartile distance), the bound check,
// and a Mann-Whitney U test. A ratio whose premise fails prints as null with
// the reason. Metric values come from valid, correct runs only. It exits 1
// when a workload ran on one side only, when the new side has a larger
// share of failed runs, a higher error rate or no valid run, or when any
// bounded metric worsens beyond its bound or is unresolved; 2 on bad input.
func compareMain(args []string, w io.Writer) int {
	base, next, ok := splitSides(args)
	if !ok {
		fmt.Fprintln(w, "usage: bench compare BASE.json... -- NEW.json...")
		return 2
	}
	a, err := loadRuns(base)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	b, err := loadRuns(next)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	if compareRuns(a, b, w) {
		return 1
	}
	return 0
}

// compareRuns prints the comparison of two run sets and reports whether the
// new side is worse.
func compareRuns(a, b runSet, w io.Writer) (worse bool) {
	for _, wl := range workloadNames(a, b) {
		sa, sb := a[wl], b[wl]
		if sa == nil || sb == nil {
			fmt.Fprintf(w, "%-10s ran on one side only: worse\n", wl)
			worse = true
			continue
		}
		verdict := "ok"
		if msg := sb.worseRuns(sa); msg != "" {
			verdict = "worse: " + msg
			worse = true
		}
		fmt.Fprintf(w, "%-10s base %s  new %s  %s\n", wl, sa, sb, verdict)
		defs := append(append(append([]metricDef(nil), endToEnd...), ownMetrics[wl]...), perLayer...)
		for _, d := range defs {
			ra, rb := sa.series(d.Name), sb.series(d.Name)
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			c := compareSeries(d, ra, rb)
			fmt.Fprintf(w, "%-10s %s\n", wl, c.line())
			worse = worse || c.verdict == "regression" || c.verdict == "unresolved"
		}
	}
	return worse
}

// splitSides splits the file list at "--".
func splitSides(args []string) (base, next []string, ok bool) {
	for i, a := range args {
		if a == "--" {
			return args[:i], args[i+1:], i > 0 && i < len(args)-1
		}
	}
	return nil, nil, false
}

// observation is one run's value of one metric.
type observation struct {
	value float64
	start int64 // run start, Unix nanoseconds: orders the pairs
}

// side is one side's runs of one workload: how many there were, how many
// failed their checks or were invalid, the operation counts summed over
// all of them, and the metric values of the valid, correct ones.
type side struct {
	runs, failedRuns, invalidRuns int
	attempted, failed             int
	metrics                       map[string][]observation
}

func (s *side) String() string {
	return fmt.Sprintf("%d runs (%d failed, %d invalid, %d of %d operations failed)",
		s.runs, s.failedRuns, s.invalidRuns, s.failed, s.attempted)
}

// worseRuns says how s fails more than base does, or "" when it does not.
// The share of invalid runs is not compared: on a shared 2-vCPU host,
// hiccups alone made half the runs of one commit invalid. A new side with
// no usable run is worse, since its metrics would drop out of the
// comparison.
func (s *side) worseRuns(base *side) string {
	share := func(n, of int) float64 { return float64(n) / float64(max(of, 1)) }
	usable := func(x *side) int { return x.runs - x.failedRuns - x.invalidRuns }
	switch {
	case share(s.failedRuns, s.runs) > share(base.failedRuns, base.runs):
		return "more runs failed their checks"
	case share(s.failed, s.attempted) > share(base.failed, base.attempted):
		return "higher error rate"
	case usable(s) == 0 && usable(base) > 0:
		return "no valid run"
	}
	return ""
}

// series returns the observations of one metric in run order.
func (s *side) series(metric string) []observation {
	obs := append([]observation(nil), s.metrics[metric]...)
	sort.Slice(obs, func(i, j int) bool { return obs[i].start < obs[j].start })
	return obs
}

// runSet is one side of a comparison, by workload.
type runSet map[string]*side

func loadRuns(paths []string) (runSet, error) {
	rs := runSet{}
	for _, p := range paths {
		var rf resultFile
		if err := readJSON(p, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, wr := range rf.Workloads {
			s := rs[wr.Workload]
			if s == nil {
				s = &side{metrics: map[string][]observation{}}
				rs[wr.Workload] = s
			}
			s.runs++
			s.attempted += wr.Attempted
			s.failed += wr.Failed
			switch {
			case !wr.Correct:
				s.failedRuns++
				continue
			case !wr.Valid:
				s.invalidRuns++
				continue
			}
			for _, m := range append(append([]metric(nil), wr.Metrics...), wr.Extra...) {
				if m.Value != nil {
					s.metrics[m.Name] = append(s.metrics[m.Name], observation{*m.Value, wr.Started.UnixNano()})
				}
			}
		}
	}
	return rs, nil
}

// workloadNames lists the workloads of either side: the benchmark's own in
// their order, then any others by name.
func workloadNames(a, b runSet) []string {
	var out, other []string
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
		if a[w.name] != nil || b[w.name] != nil {
			out = append(out, w.name)
		}
	}
	for _, rs := range []runSet{a, b} {
		for name := range rs {
			if !known[name] {
				known[name] = true
				other = append(other, name)
			}
		}
	}
	sort.Strings(other)
	return append(out, other...)
}

// comparison is the verdict on one metric of one workload.
type comparison struct {
	def        metricDef
	base, next quartiles
	pairs      int
	wins       int
	ratio      string // new median / base median, or null with the reason
	gain       string // "gain" or why not
	verdict    string // "ok", "regression", "unresolved" (end-to-end) or "" (per-layer)
	u, p       float64
}

func compareSeries(d metricDef, a, b []observation) comparison {
	va, vb := values(a), values(b)
	c := comparison{def: d, base: summarize(va), next: summarize(vb)}
	c.u, _, c.p = mannWhitney(vb, va)
	c.pairs = min(len(a), len(b))
	alternating := true
	for i := 0; i < c.pairs; i++ {
		if better(d, vb[i], va[i]) {
			c.wins++
		}
		if i > 0 && (a[i].start < b[i].start) == (a[i-1].start < b[i-1].start) {
			alternating = false
		}
	}

	premise := ""
	switch {
	case c.pairs < 10:
		premise = fmt.Sprintf("%d pairs, need 10", c.pairs)
	case !alternating:
		premise = "pairs did not alternate which side ran first"
	case c.base.Median == 0:
		premise = "base median is 0"
	}
	if premise != "" {
		c.ratio = "null (" + premise + ")"
		c.gain = "no claim: " + premise
	} else {
		c.ratio = fmt.Sprintf("%.4f", c.next.Median/c.base.Median)
		gap, spread := math.Abs(c.next.Median-c.base.Median), c.base.Q3-c.base.Q1
		switch {
		case !better(d, c.next.Median, c.base.Median):
			c.gain = "no gain"
		case float64(c.wins) < 0.9*float64(c.pairs):
			c.gain = fmt.Sprintf("no claim: won %d of %d pairs", c.wins, c.pairs)
		case gap <= spread:
			c.gain = fmt.Sprintf("no claim: median gap %.4g within base IQR %.4g", gap, spread)
		default:
			c.gain = "gain"
		}
	}

	if d.Bound > 0 {
		c.verdict = "ok"
		worsening := (c.next.Median - c.base.Median) / math.Abs(c.base.Median)
		if d.Better == "higher" {
			worsening = -worsening
		}
		switch {
		case c.base.iqrShare() > d.Bound && !allBetter(d, vb, va):
			c.verdict = "unresolved"
		case worsening > d.Bound:
			c.verdict = "regression"
		}
	}
	return c
}

func (c comparison) line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s base %.5g [%.5g, %.5g] n=%d  new %.5g [%.5g, %.5g] n=%d  ratio %s  wins %d/%d  %s  U=%.1f p=%.3g",
		c.def.Name, c.base.Median, c.base.Q1, c.base.Q3, c.base.N,
		c.next.Median, c.next.Q1, c.next.Q3, c.next.N, c.ratio, c.wins, c.pairs, c.gain, c.u, c.p)
	if c.verdict != "" {
		fmt.Fprintf(&b, "  bound %.0f%%: %s", 100*c.def.Bound, c.verdict)
	}
	return b.String()
}

func values(obs []observation) []float64 {
	out := make([]float64, len(obs))
	for i, o := range obs {
		out[i] = o.value
	}
	return out
}

// better reports whether x is strictly better than y for the metric.
func better(d metricDef, x, y float64) bool {
	if d.Better == "higher" {
		return x > y
	}
	return x < y
}

// allBetter reports whether every new value beats every base value.
func allBetter(d metricDef, next, base []float64) bool {
	for _, x := range next {
		for _, y := range base {
			if !better(d, x, y) {
				return false
			}
		}
	}
	return true
}
