package main

import (
	"fmt"
	"math"
)

// metricDef declares one metric of BENCHMARK.json. Every workload reports
// every end-to-end metric in an untraced run and every per-layer metric in
// a traced run; TestBenchmarkJSONMatches keeps these tables and the JSON
// file in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the base median
}

// endToEnd are what a user of each workload sees, reported by every
// workload for its own unit of work: a slice of the study for fig5 and
// dynamics, a 10k-node session for scale-10k, an HTTP request for
// serve-mix. README.md defines each one per workload. The timings, all but
// serve-mix's open-loop latency, are rescaled to a reference host speed
// (refclock.go). A bound is 10% for
// memory, whose run-to-run spread stayed well inside 10% on every
// workload, and 25% for the timings, about three times their largest
// spread over ten runs on the shared 2-vCPU host they were sized on
// (README.md, Run-to-run spread). setup_s has the widest bound, as the
// benchmark format asks.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.10},
}

// ownMetrics are end-to-end metrics only one workload has. BENCHMARK.json
// can declare only metrics that every workload reports, so these live in
// the result file's extras, and bench compare applies their bounds, chosen
// by the same rule as above. A metric with bound 0 spread by 25% or more
// over ten runs and is reported without a bound.
var ownMetrics = map[string][]metricDef{
	"scale-10k": {{"peak_heap_mib", "MiB", "lower", 0.10}},
	"serve-mix": {
		{"hit_p50_ms", "ms", "lower", 0.25},
		{"hit_p99_ms", "ms", "lower", 0},
		{"store_hit_p50_ms", "ms", "lower", 0.25},
		{"store_hit_p90_ms", "ms", "lower", 0},
		{"miss_p50_ms", "ms", "lower", 0},
		{"miss_p90_ms", "ms", "lower", 0},
	},
}

// perLayer are measured by the traced run, which replays a sample of each
// workload's sessions through the phased Session API and its specs through
// the serving layers in process, timing each call from the benchmark's own
// files. README.md maps each one to the end-to-end metric it moves.
var perLayer = []metricDef{
	{"topology.build_ms", "ms", "lower", 0},
	{"channel.linktable_build_ms", "ms", "lower", 0},
	{"experiment.new_session_ms", "ms", "lower", 0},
	{"experiment.reset_us", "us", "lower", 0},
	{"network.hello_ms", "ms", "lower", 0},
	{"proto.discovery_ms", "ms", "lower", 0},
	{"proto.data_ms", "ms", "lower", 0},
	{"metrics.snapshot_us", "us", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.max_pending", "count", "lower", 0},
	{"sim.hold_ns", "ns", "lower", 0},
	{"channel.tx", "count", "lower", 0},
	{"channel.rx", "count", "higher", 0},
	{"channel.collisions", "count", "lower", 0},
	{"channel.halfduplex", "count", "lower", 0},
	{"channel.drops", "count", "lower", 0},
	{"channel.rx_per_tx", "ratio", "higher", 0},
	{"channel.useful_ratio", "ratio", "higher", 0},
	{"channel.transmit_us", "us", "lower", 0},
	{"channel.move_us", "us", "lower", 0},
	{"proto.control_tx", "count", "lower", 0},
	{"proto.data_tx", "count", "lower", 0},
	{"proto.tx_hello", "count", "lower", 0},
	{"proto.tx_joinquery", "count", "lower", 0},
	{"proto.tx_joinreply", "count", "lower", 0},
	{"neighbor.entries_mean", "count", "lower", 0},
	{"heap.live_mib_setup", "MiB", "lower", 0},
	{"heap.live_mib_hello", "MiB", "lower", 0},
	{"heap.live_mib_discovery", "MiB", "lower", 0},
	{"heap.live_mib_data", "MiB", "lower", 0},
	{"sweep.tail_s", "s", "lower", 0},
	{"http.decode_us", "us", "lower", 0},
	{"experiment.canonical_us", "us", "lower", 0},
	{"experiment.key_us", "us", "lower", 0},
	{"service.compute_ms", "ms", "lower", 0},
	{"service.marshal_us", "us", "lower", 0},
	{"service.store_append_us", "us", "lower", 0},
	{"service.store_get_us", "us", "lower", 0},
	{"service.lookup_us", "us", "lower", 0},
	{"service.hit_us", "us", "lower", 0},
	{"http.overhead_us", "us", "lower", 0},
	{"trace.residual_frac", "ratio", "lower", 0},
}

// metric is one reported number with its unit and, when it was taken from
// several samples, their count and quartiles. Value is nil when the
// metric's premise failed (too few samples for the percentile, say); Note
// then says why.
type metric struct {
	Name    string     `json:"name"`
	Unit    string     `json:"unit"`
	Value   *float64   `json:"value"`
	Samples *quartiles `json:"samples,omitempty"`
	Note    string     `json:"note,omitempty"`
}

// report collects what one workload run measured and checked.
type report struct {
	attempted int
	failed    int
	failures  []string // the first few failure messages
	invalid   string   // why the measurement cannot be trusted, if it cannot
	metrics   []metric
	traceFile string
}

const maxFailureNotes = 20

// fail records one failed operation or check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// add records a metric taken from samples (value computed by the caller).
func (r *report) add(name, unit string, value float64, samples []float64) {
	m := metric{Name: name, Unit: unit, Value: &value}
	if len(samples) > 1 {
		q := summarize(samples)
		m.Samples = &q
	}
	r.metrics = append(r.metrics, m)
}

// addMedian records the median of samples.
func (r *report) addMedian(name, unit string, samples []float64) {
	r.add(name, unit, median(sortedCopy(samples)), samples)
}

// addNull records a metric whose premise failed.
func (r *report) addNull(name, unit, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Note: note})
}

// addPercentile records the nearest-rank p-th percentile of samples, or
// null when fewer than minBeyond samples lie beyond it.
func (r *report) addPercentile(name, unit string, p float64, samples []float64) {
	if n := beyond(len(samples), p); n < minBeyond {
		r.addNull(name, unit, fmt.Sprintf("p%g needs %d samples beyond it, have %d of %d", p, minBeyond, max(n, 0), len(samples)))
		return
	}
	r.add(name, unit, percentile(sortedCopy(samples), p), samples)
}

// find returns the metric named name.
func (r *report) find(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// split partitions the collected metrics into the declared set, in
// declaration order, and the workload's own extras. A declared metric that
// is missing, null or not finite is a benchmark bug.
func (r *report) split(defs []metricDef) (declared, extra []metric, err error) {
	want := make(map[string]bool, len(defs))
	for _, d := range defs {
		m, ok := r.find(d.Name)
		switch {
		case !ok:
			return nil, nil, fmt.Errorf("metric %s was not measured", d.Name)
		case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			return nil, nil, fmt.Errorf("metric %s has no finite value (%s)", d.Name, m.Note)
		case m.Unit != d.Unit:
			return nil, nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		want[d.Name] = true
		declared = append(declared, m)
	}
	for _, m := range r.metrics {
		if !want[m.Name] {
			extra = append(extra, m)
		}
	}
	return declared, extra, nil
}
