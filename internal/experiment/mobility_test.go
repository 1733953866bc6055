package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mtmrp/internal/mobility"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

// miniMobilityConfig is the small sweep used by both the bit-identity and
// the golden tests: one static point and one moving point, two runs, three
// protocols.
func miniMobilityConfig(workers int) MobilityConfig {
	return MobilityConfig{
		Topo:      GridTopo,
		GroupSize: 10,
		Speeds:    []float64{0, 15},
		Pauses:    []sim.Time{0},
		Runs:      2,
		Seed:      99,
		Protocols: []Protocol{MTMRP, ODMRP, DODMRP},
		Packets:   8,
		Engine:    EngineOptions{Workers: workers},
	}
}

// mobileScenario is a single mobile run used by the fresh-vs-pooled and
// static-trace tests.
func mobileScenario(t *testing.T, p Protocol) Scenario {
	t.Helper()
	topo := topology.PaperGrid()
	rcv, err := topo.PickReceivers(0, 10, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Topo: topo, Source: 0, Receivers: rcv, Protocol: p, Seed: 6,
		Traffic: TrafficOptions{
			DataPackets: 8, Interval: 50 * sim.Millisecond,
			RefreshInterval: 200 * sim.Millisecond,
		},
		Faults:   FaultOptions{ForwarderExpiry: 300 * sim.Millisecond},
		Mobility: MobilityOptions{Model: mobility.RandomWaypoint, MaxSpeed: 15},
	}
}

// TestMobilitySweepBitIdentical is the reproducibility acceptance test for
// the mobility layer: the same sweep must fold to bit-identical summaries
// on one worker and on four (different job interleavings, per-worker
// session pools), and a single mobile scenario must produce the same
// outcome through a fresh session and a pooled, reset one.
func TestMobilitySweepBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r1, err := MobilitySweep(miniMobilityConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := MobilitySweep(miniMobilityConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Cells, r4.Cells) {
		t.Errorf("mobility sweep diverged across worker counts:\n 1: %+v\n 4: %+v",
			r1.Cells, r4.Cells)
	}

	// Fresh vs pooled, on a scenario with motion and soft state active. The
	// pool runs it twice so the second pass goes through Reset with a
	// previously-moved dynamic table.
	sc := mobileScenario(t, ODMRP)
	fresh, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSessionPool()
	for pass := 0; pass < 2; pass++ {
		pooled, err := pool.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh.Result, pooled.Result) {
			t.Errorf("pass %d: pooled mobile Result diverged from fresh:\n want %+v\n  got %+v",
				pass, fresh.Result, pooled.Result)
		}
		if !reflect.DeepEqual(fresh.Robustness, pooled.Robustness) {
			t.Errorf("pass %d: pooled mobile Robustness diverged from fresh:\n want %+v\n  got %+v",
				pass, fresh.Robustness, pooled.Robustness)
		}
	}
}

// TestMobilityActuallyMoves guards against the whole subsystem silently
// becoming a no-op: a mobile run must end with node positions different
// from the topology's, and the dynamic table must be in use.
func TestMobilityActuallyMoves(t *testing.T) {
	sc := mobileScenario(t, ODMRP)
	s, err := NewSession(sc)
	if err != nil {
		t.Fatal(err)
	}
	if s.dyn == nil || s.mover == nil {
		t.Fatal("mobile session built without dynamic table or mover")
	}
	s.RunHello()
	s.RunDiscovery(0)
	for i, p := range sc.Topo.Positions {
		if s.dyn.Position(i) != p {
			t.Fatalf("node %d moved before the data phase", i)
		}
	}
	if _, err := s.RunData(0); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, p := range sc.Topo.Positions {
		if s.dyn.Position(i) != p {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no node moved during a 15 m/s run")
	}
	if s.dyn.Position(sc.Source) != sc.Topo.Positions[sc.Source] {
		t.Fatal("pinned source moved")
	}
}

// TestMobilityOptionsApplyAndReset drives a session through mobile →
// static → mobile Reset cycles: a static Reset must shed the mover (and
// produce the static outcome), a mobile one must rewind the dynamic table
// to the start positions and re-arm motion bit-identically.
func TestMobilityOptionsApplyAndReset(t *testing.T) {
	mobile := mobileScenario(t, ODMRP)
	static := mobile
	static.Mobility = MobilityOptions{}

	wantStatic, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	wantMobile, err := Run(mobile)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(wantStatic.Result, wantMobile.Result) {
		t.Fatal("mobile and static outcomes coincide; the test cannot distinguish the paths")
	}

	run := func(s *Session) Outcome {
		t.Helper()
		s.RunHello()
		s.RunDiscovery(0)
		if _, err := s.RunData(0); err != nil {
			t.Fatal(err)
		}
		out, err := s.Outcome()
		if err != nil {
			t.Fatal(err)
		}
		return *out
	}

	s, err := NewSession(mobile)
	if err != nil {
		t.Fatal(err)
	}
	run(s)

	if err := s.Reset(static); err != nil {
		t.Fatal(err)
	}
	if s.mover != nil {
		t.Error("static Reset kept the mover")
	}
	if got := run(s); !reflect.DeepEqual(wantStatic.Result, got.Result) {
		t.Errorf("static Reset after motion diverged:\n want %+v\n  got %+v",
			wantStatic.Result, got.Result)
	}

	if err := s.Reset(mobile); err != nil {
		t.Fatal(err)
	}
	if got := run(s); !reflect.DeepEqual(wantMobile.Result, got.Result) {
		t.Errorf("mobile Reset diverged from fresh mobile run:\n want %+v\n  got %+v",
			wantMobile.Result, got.Result)
	}
}

// TestStaticTraceMatchesStaticPath pins the two code paths against each
// other: a mobile session whose trace freezes every node must reproduce
// the static shared-link-table run bit for bit — the dynamic table is the
// same table, just mutable.
func TestStaticTraceMatchesStaticPath(t *testing.T) {
	sc := mobileScenario(t, MTMRP)
	static := sc
	static.Mobility = MobilityOptions{}
	want, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}

	paths := make([]mobility.Path, sc.Topo.N())
	for i, p := range sc.Topo.Positions {
		paths[i] = mobility.Path{{At: 0, Pos: p}}
	}
	sc.Mobility = MobilityOptions{Trace: &mobility.Plan{Field: sc.Topo.Side, Paths: paths}}
	got, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Result, got.Result) {
		t.Errorf("frozen trace diverged from static path:\n want %+v\n  got %+v",
			want.Result, got.Result)
	}
}

// TestMobilityValidation covers the scenario errors of the mobility group.
func TestMobilityValidation(t *testing.T) {
	sc := mobileScenario(t, MTMRP)

	unpaced := sc
	unpaced.Traffic.Interval = 0
	if _, err := Run(unpaced); err != ErrMobilityUnpaced {
		t.Errorf("unpaced mobile run: err = %v, want ErrMobilityUnpaced", err)
	}

	slow := sc
	slow.Mobility.MaxSpeed = 0
	if _, err := Run(slow); err != ErrMobilitySpeed {
		t.Errorf("zero-speed model: err = %v, want ErrMobilitySpeed", err)
	}

	short := sc
	short.Mobility = MobilityOptions{Trace: &mobility.Plan{
		Field: sc.Topo.Side,
		Paths: []mobility.Path{{{At: 0, Pos: sc.Topo.Positions[0]}}},
	}}
	if _, err := Run(short); err != ErrMobilityTrace {
		t.Errorf("undersized trace: err = %v, want ErrMobilityTrace", err)
	}
}

// TestGoldenMobilitySweep pins the folded summaries of a miniature
// MobilitySweep — the PDR-vs-speed table cmd/repro prints — so the motion
// draw order (plan substream, tick cadence, arming order) stays
// bit-identical under future work.
func TestGoldenMobilitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := miniMobilityConfig(0)
	res, err := MobilitySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		Protocol string  `json:"protocol"`
		Speed    float64 `json:"speed"`
		PauseMs  int64   `json:"pause_ms"`
		Metric   string  `json:"metric"`
		Mean     float64 `json:"mean"`
		CI95     float64 `json:"ci95"`
	}
	var got []cell
	for r, row := range res.Rows {
		for xi, pt := range cfg.Points() {
			for m := MobilityMetric(0); m < NumMobilityMetrics; m++ {
				s := res.Cells[r][xi][m]
				got = append(got, cell{row, pt.Speed,
					int64(pt.Pause / sim.Millisecond), m.String(), s.Mean, s.CI95})
			}
		}
	}

	path := filepath.Join("testdata", "golden_mobility.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: wrote %d cells to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (run with -update on a known-good tree first)", err)
	}
	var want []cell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		for i := range want {
			if i < len(got) && !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("golden cell mismatch: want %+v, got %+v", want[i], got[i])
			}
		}
		t.Fatalf("golden: mobility sweep summaries drifted (%d cells)", len(want))
	}
}
