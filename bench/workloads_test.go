package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mtmrp/internal/experiment"
	"mtmrp/internal/service"
)

// tinyConfig runs one pass of whatever a workload repeats.
func tinyConfig(t *testing.T) runConfig {
	return runConfig{Seed: 2010, Seconds: time.Millisecond, Workers: 2, Dir: t.TempDir()}
}

// checkReport asserts a workload run succeeded and measured every metric
// of the given set.
func checkReport(t *testing.T, rep *report, err error, defs []metricDef) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted == 0 || rep.failed != 0 {
		t.Fatalf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.failures)
	}
	if _, _, err := rep.split(defs); err != nil {
		t.Fatal(err)
	}
}

func tinyFig5(seed uint64) []experiment.SweepSpec {
	return []experiment.SweepSpec{{Topo: "grid", Sizes: []int{10, 20}, Runs: 10, Protocols: []string{"mtmrp", "odmrp"}, Seed: seed}}
}

func tinyDynamics(seed uint64) []experiment.SweepSpec {
	return []experiment.SweepSpec{
		{Kind: "mobility", Topo: "grid", Speeds: []float64{0, 10}, PausesMs: []float64{0}, Runs: 2, Packets: 4, Protocols: []string{"mtmrp"}, Seed: seed},
		{Kind: "fault", Topo: "grid", FailFractions: []float64{0, 0.2}, Runs: 2, Packets: 4, Protocols: []string{"odmrp"}, Seed: seed},
	}
}

func TestSweepWorkloadsTiny(t *testing.T) {
	for _, specs := range []func(uint64) []experiment.SweepSpec{tinyFig5, tinyDynamics} {
		rep, err := runSweeps(context.Background(), tinyConfig(t), specs)
		checkReport(t, rep, err, endToEnd)
	}
}

func TestScaleWorkloadTiny(t *testing.T) {
	rep, err := runScale(context.Background(), tinyConfig(t), scaleConfig{Nodes: 300, Receivers: 10, Packets: 3})
	checkReport(t, rep, err, endToEnd)
}

// testFleet stands in for the mtmrd binaries: two shards and a fan-out
// coordinator served by httptest in process.
type testFleet struct {
	srvs []*httptest.Server
	svcs []*service.Service
}

func (f *testFleet) urls() []string {
	out := make([]string, len(f.srvs))
	for i, s := range f.srvs {
		out[i] = s.URL
	}
	return out
}

// peakRSSMiB is the test process's own: the fleet runs inside it.
func (f *testFleet) peakRSSMiB() float64 { return selfPeakRSSMiB() }

func (f *testFleet) stop() error {
	var errs []error
	for _, s := range f.srvs {
		s.Close()
	}
	for _, s := range f.svcs {
		errs = append(errs, s.Close())
	}
	f.srvs, f.svcs = nil, nil
	return errors.Join(errs...)
}

func bootTestFleet(_ context.Context, dir, coordStore string, cache int) (fleet, error) {
	f := &testFleet{}
	var peers []string
	for i := 0; i < 2; i++ {
		svc, err := service.New(service.Config{
			StorePath: filepath.Join(dir, fmt.Sprintf("shard%d.store", i)), CacheEntries: cache,
			Shard: service.Shard{Index: i, Count: 2},
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.svcs = append(f.svcs, svc)
		srv := httptest.NewServer(svc.Handler())
		f.srvs = append(f.srvs, srv)
		peers = append(peers, srv.URL)
	}
	svc, err := service.New(service.Config{StorePath: coordStore, CacheEntries: cache})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.svcs = append(f.svcs, svc)
	fan, err := service.NewFanout(svc, service.FanoutConfig{Peers: peers})
	if err != nil {
		f.stop()
		return nil, err
	}
	coord := httptest.NewServer(fan.Handler())
	f.srvs = append([]*httptest.Server{coord}, f.srvs...)
	return f, nil
}

// testRefServer serves the HTTP reference in process.
func testRefServer(context.Context, string) (string, func() error, error) {
	srv := httptest.NewServer(refHandler())
	var once sync.Once
	return srv.URL, func() error { once.Do(srv.Close); return nil }, nil
}

func TestServeWorkloadTiny(t *testing.T) {
	cfg := serveMix
	cfg.Hot, cfg.Cold, cfg.Cache = 4, 8, 8
	rc := tinyConfig(t)
	rc.Seconds = time.Second
	rep, err := runServe(context.Background(), rc, cfg, bootTestFleet, testRefServer)
	checkReport(t, rep, err, endToEnd)
	for _, name := range []string{"hit_p50_ms", "service.computes", "fanout.sub_jobs", "host.http_ref_ms"} {
		if _, ok := rep.find(name); !ok {
			t.Errorf("serve-mix did not report %s", name)
		}
	}
}

func TestTraceTiny(t *testing.T) {
	small := experiment.RunSpec{Topo: experiment.TopoSpec{Kind: "random", Nodes: 60, Seed: 3}, GroupSize: 5, Seed: 3}
	mobile := experiment.RunSpec{
		Topo: experiment.TopoSpec{Kind: "grid"}, GroupSize: 5, Seed: 4,
		Traffic:  experiment.TrafficSpec{DataPackets: 3, IntervalMs: 50},
		Mobility: experiment.MobilitySpec{Model: "waypoint", MaxSpeed: 10},
	}
	spec := tinyFig5(9)[0]
	spec.Runs = 1
	for _, in := range []traceInputs{
		{sessions: []experiment.RunSpec{small, mobile}, sweeps: []experiment.SweepSpec{spec}, tail: &spec},
		{sessions: []experiment.RunSpec{small, small}, runs: []experiment.RunSpec{small}},
	} {
		rep, err := traceRun(context.Background(), tinyConfig(t), in)
		checkReport(t, rep, err, perLayer)
		if rep.traceFile == "" {
			t.Error("no span file written")
		}
	}
}

func TestServeInputsDeterministic(t *testing.T) {
	hot1, cold1 := serveSpecs(7, serveMix)
	hot2, cold2 := serveSpecs(7, serveMix)
	if !reflect.DeepEqual(hot1, hot2) || !reflect.DeepEqual(cold1, cold2) {
		t.Fatal("spec generation is not a function of the seed")
	}
	if other, _ := serveSpecs(8, serveMix); reflect.DeepEqual(hot1, other) {
		t.Fatal("another seed generated the same specs")
	}
	keys := map[string]bool{}
	for _, s := range append(hot1, cold1...) {
		k, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[k] = true
	}
	if len(keys) != serveMix.Hot+serveMix.Cold {
		t.Fatalf("%d distinct keys for %d specs", len(keys), serveMix.Hot+serveMix.Cold)
	}

	d := 15 * time.Second
	a, b := openSchedule(7, serveMix, d), openSchedule(7, serveMix, d)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("schedule is not a function of the seed")
	}
	if len(a) != int(openRate*d.Seconds()) {
		t.Fatalf("%d requests, want %g", len(a), openRate*d.Seconds())
	}
	counts := [3]int{}
	seenCold := map[int]bool{}
	for i, rq := range a {
		counts[rq.class]++
		if want := time.Duration(float64(i) / openRate * float64(time.Second)); rq.due != want {
			t.Fatalf("request %d due at %v, want %v", i, rq.due, want)
		}
		if rq.class == classStore {
			if seenCold[rq.spec] {
				t.Fatalf("cold spec %d repeated before the permutation was exhausted", rq.spec)
			}
			seenCold[rq.spec] = true
		}
	}
	if counts[classHit] < 8*counts[classStore] || counts[classMiss] == 0 || counts[classStore] == 0 {
		t.Errorf("class counts %v do not follow the 90/5/5 mix", counts)
	}
	if !reflect.DeepEqual(fig5Specs(3), fig5Specs(3)) || !reflect.DeepEqual(scaleSpec(scale10k, 3, 1), scaleSpec(scale10k, 3, 1)) {
		t.Error("workload specs are not a function of the seed")
	}
	if missSpec(3, 1).Seed == missSpec(3, 2).Seed {
		t.Error("fresh specs share a seed")
	}
}

// A schedule that is already overdue when the loop starts must show the
// overdue time as lateness, and every latency must include it.
func TestLatenessFromDueTime(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Mtmrd-Key", "k")
		w.Header().Set("X-Mtmrd-Cache", "hit")
		w.Header().Set("X-Mtmrd-Source", "cache")
		w.Write([]byte("payload"))
	}))
	defer srv.Close()
	reqs := []request{{due: 0}, {due: time.Millisecond}, {due: 2 * time.Millisecond}}
	const overdue = 50 * time.Millisecond
	client := srv.Client()
	samples, _ := openLoop(context.Background(), func(request) *http.Client { return client }, srv.URL, reqs,
		time.Now().Add(-overdue), func(request) target { return target{key: "k", want: []byte("payload")} })
	for i, s := range samples {
		if s.err != nil {
			t.Fatal(s.err)
		}
		if s.served != "hit" {
			t.Errorf("request %d served as %q", i, s.served)
		}
		if s.late < overdue-reqs[i].due {
			t.Errorf("request %d: lateness %v, want at least %v", i, s.late, overdue-reqs[i].due)
		}
		if s.latency < s.late {
			t.Errorf("request %d: latency %v excludes lateness %v", i, s.latency, s.late)
		}
	}
}

// BENCHMARK.json declares exactly the workloads and metrics this program
// reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, implemented %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, implemented %+v", spec.EndToEnd, endToEnd)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: declared %+v, implemented %+v", i, m, d)
		}
	}
}
