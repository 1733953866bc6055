package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestSweepSpecCanonicalization checks that every equivalent spelling of a
// sweep spec — permuted and duplicated size/protocol sets, legend-style
// protocol names, defaults spelled out vs. omitted — lands on one
// canonical form and one key, while actual parameter changes do not.
func TestSweepSpecCanonicalization(t *testing.T) {
	base := SweepSpec{Topo: "grid", Sizes: []int{5, 10, 15}, Runs: 7, Seed: 3,
		Protocols: []string{"mtmrp", "odmrp"}}
	baseKey, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	same := []SweepSpec{
		{Topo: "Grid", Sizes: []int{15, 5, 10}, Runs: 7, Seed: 3,
			Protocols: []string{"odmrp", "mtmrp"}}, // permuted, case-folded
		{Topo: "grid", Sizes: []int{5, 10, 10, 15, 5}, Runs: 7, Seed: 3,
			Protocols: []string{"mtmrp", "ODMRP", "mtmrp"}}, // duplicated
		{Sizes: []int{5, 10, 15}, Runs: 7, Seed: 3,
			Protocols: []string{"mtmrp", "odmrp"}}, // topo default spelled out above
		{Topo: "grid", Sizes: []int{5, 10, 15}, Runs: 7, Seed: 3, N: 4, DeltaMs: 1,
			Protocols: []string{"mtmrp", "odmrp"}}, // defaults explicit
	}
	for i, s := range same {
		k, err := s.Key()
		if err != nil {
			t.Fatalf("spelling %d: %v", i, err)
		}
		if k != baseKey {
			t.Errorf("spelling %d hashed to %s, want %s", i, k, baseKey)
		}
	}
	different := []SweepSpec{
		{Topo: "random", Sizes: []int{5, 10, 15}, Runs: 7, Seed: 3, Protocols: []string{"mtmrp", "odmrp"}},
		{Topo: "grid", Sizes: []int{5, 10, 15}, Runs: 8, Seed: 3, Protocols: []string{"mtmrp", "odmrp"}},
		{Topo: "grid", Sizes: []int{5, 10, 15}, Runs: 7, Seed: 4, Protocols: []string{"mtmrp", "odmrp"}},
		{Topo: "grid", Sizes: []int{5, 10, 15}, Runs: 7, Seed: 3, Protocols: []string{"mtmrp"}},
		{Topo: "grid", Sizes: []int{5, 10}, Runs: 7, Seed: 3, Protocols: []string{"mtmrp", "odmrp"}},
		{Topo: "grid", Sizes: []int{5, 10, 15}, Runs: 7, Seed: 3, N: 6, Protocols: []string{"mtmrp", "odmrp"}},
	}
	for i, s := range different {
		k, err := s.Key()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if k == baseKey {
			t.Errorf("variant %d collided with the base key", i)
		}
	}

	// The default sweep is the paper's Figure-5 study.
	c, err := SweepSpec{}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want := SweepSpec{Topo: "grid", Sizes: PaperSizes(), Runs: 100, N: 4, DeltaMs: 1,
		Protocols: []string{"mtmrp", "mtmrp-nophs", "dodmrp", "odmrp"}}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("zero-spec canonical form = %+v, want %+v", c, want)
	}
}

// TestSpecValidation checks the rejection paths.
func TestSpecValidation(t *testing.T) {
	if _, err := (SweepSpec{Topo: "torus"}).Key(); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := (SweepSpec{Protocols: []string{"ospf"}}).Key(); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := (SweepSpec{Sizes: []int{0, 5}}).Key(); err == nil {
		t.Error("non-positive group size accepted")
	}
	if _, err := (RunSpec{Topo: TopoSpec{Kind: "random", Nodes: 1}}).Key(); err == nil {
		t.Error("1-node random topology accepted")
	}
	if _, err := (RunSpec{Mobility: MobilitySpec{Model: "waypoint", MaxSpeed: 5}}).Key(); err == nil {
		t.Error("mobile spec without a traffic interval accepted")
	}
	if _, err := (RunSpec{Radio: RadioSpec{MAC: "tdma"}}).Key(); err == nil {
		t.Error("unknown MAC accepted")
	}
	// Backoff parameters the protocols cannot run are spec errors, not
	// worker panics.
	for _, s := range []SweepSpec{{N: -1}, {DeltaMs: -1}, {DeltaMs: 1e-9}} {
		if _, err := s.Key(); !errors.Is(err, ErrSpecBackoff) {
			t.Errorf("sweep n=%d delta_ms=%g: err = %v, want ErrSpecBackoff", s.N, s.DeltaMs, err)
		}
	}
	for _, s := range []RunSpec{{N: -2}, {DeltaMs: -1}} {
		if _, err := RunFromSpec(s, nil); !errors.Is(err, ErrSpecBackoff) {
			t.Errorf("run n=%d delta_ms=%g: err = %v, want ErrSpecBackoff", s.N, s.DeltaMs, err)
		}
	}
}

// TestSpecKindsNeverCollide pins the frame injectivity: a sweep spec and a
// run spec can never share a key (the kind is part of the hashed frame).
func TestSpecKindsNeverCollide(t *testing.T) {
	sk, err := SweepSpec{}.Key()
	if err != nil {
		t.Fatal(err)
	}
	rk, err := RunSpec{}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if sk == rk {
		t.Fatal("sweep and run specs hashed to the same key")
	}
}

// TestSweepSplitComposes pins the shardable-job property: the single-size
// sub-sweeps of Split() compute exactly the cells of the full sweep, bit
// for bit, because round labels depend only on (size, run).
func TestSweepSplitComposes(t *testing.T) {
	spec := SweepSpec{Topo: "grid", Sizes: []int{10, 5}, Runs: 3, Seed: 9,
		Protocols: []string{"mtmrp", "odmrp"}}
	cfg, err := spec.SweepConfig()
	if err != nil {
		t.Fatal(err)
	}
	full, err := GroupSizeSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := spec.Split()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("split into %d sub-sweeps, want 2", len(subs))
	}
	canon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for si, sub := range subs {
		subKey, err := sub.Key()
		if err != nil {
			t.Fatal(err)
		}
		fullKey, _ := spec.Key()
		if subKey == fullKey {
			t.Errorf("sub-sweep %d shares the full sweep's key", si)
		}
		subCfg, err := sub.SweepConfig()
		if err != nil {
			t.Fatal(err)
		}
		if len(subCfg.Sizes) != 1 || subCfg.Sizes[0] != canon.Sizes[si] {
			t.Fatalf("sub-sweep %d sizes = %v, want [%d]", si, subCfg.Sizes, canon.Sizes[si])
		}
		part, err := GroupSizeSweep(subCfg)
		if err != nil {
			t.Fatal(err)
		}
		for pi, p := range cfg.Protocols {
			if !reflect.DeepEqual(part.Cells[pi][0], full.Cells[pi][si]) {
				t.Errorf("%v size %d: sub-sweep cells diverged from the full sweep",
					p, canon.Sizes[si])
			}
		}
	}
}

// TestSweepKindCanonicalization checks the kind registry's normal forms:
// alias spellings land on the canonical kind (group-size on "", so every
// pre-registry spec hashes unchanged), defaults fill in per kind, and
// kind-foreign fields are rejected rather than silently hashed.
func TestSweepKindCanonicalization(t *testing.T) {
	// Aliases hash identically to their canonical kind.
	plainKey, err := SweepSpec{Runs: 7}.Key()
	if err != nil {
		t.Fatal(err)
	}
	for _, alias := range []string{"group-size", "group_size", "Groupsize"} {
		k, err := SweepSpec{Kind: alias, Runs: 7}.Key()
		if err != nil {
			t.Fatalf("alias %q: %v", alias, err)
		}
		if k != plainKey {
			t.Errorf("kind %q hashed differently from the bare spec", alias)
		}
	}
	faultKey, err := SweepSpec{Kind: "fault", Seed: 2}.Key()
	if err != nil {
		t.Fatal(err)
	}
	faultsKey, err := SweepSpec{Kind: "Faults", Seed: 2}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if faultKey != faultsKey {
		t.Error("fault kind aliases hashed differently")
	}
	if faultKey == plainKey {
		t.Error("fault sweep collided with a group-size sweep")
	}

	// Canonical defaults per kind.
	fc, err := SweepSpec{Kind: "fault"}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	wantFault := SweepSpec{
		Kind: "fault", Topo: "grid", Runs: 20,
		Protocols: []string{"mtmrp", "mtmrp-nophs", "dodmrp", "odmrp"},
		GroupSize: 20, Packets: 20, IntervalMs: 50, RefreshIntervalMs: 200,
		ForwarderExpiryMs: 300, FailFractions: []float64{0, 0.05, 0.1, 0.2, 0.3},
		StartMs: 1200, WindowMs: 800,
	}
	if !reflect.DeepEqual(fc, wantFault) {
		t.Errorf("fault canonical form = %+v, want %+v", fc, wantFault)
	}
	mc, err := SweepSpec{Kind: "mobility", Speeds: []float64{10, 5, 10}}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	wantMob := SweepSpec{
		Kind: "mobility", Topo: "grid", Runs: 20,
		Protocols: []string{"mtmrp", "mtmrp-nophs", "dodmrp", "odmrp"},
		GroupSize: 20, Packets: 20, IntervalMs: 50, RefreshIntervalMs: 200,
		ForwarderExpiryMs: 300, Model: "waypoint",
		Speeds: []float64{5, 10}, PausesMs: []float64{0, 500},
	}
	if !reflect.DeepEqual(mc, wantMob) {
		t.Errorf("mobility canonical form = %+v, want %+v", mc, wantMob)
	}

	// Kind metric axes.
	names, err := SweepSpec{Kind: "fault"}.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"mean_pdr", "min_pdr", "repairs", "repair_time_ms"}) {
		t.Errorf("fault metrics = %v", names)
	}
	names, err = SweepSpec{}.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"overhead", "extra_nodes", "relay_profit", "delivery"}) {
		t.Errorf("group-size metrics = %v", names)
	}

	// Rejection paths: unknown kinds, kind-foreign fields, bad axes.
	bad := []SweepSpec{
		{Kind: "tuning"},
		{FailFractions: []float64{0.1}},                // fault field on group-size
		{Speeds: []float64{5}},                         // mobility field on group-size
		{Kind: "fault", Sizes: []int{5}},               // group-size field on fault
		{Kind: "fault", Model: "waypoint"},             // mobility field on fault
		{Kind: "mobility", Loss: true},                 // fault field on mobility
		{Kind: "mobility", N: 4},                       // backoff params are group-size-only
		{Kind: "fault", FailFractions: []float64{1.5}}, // out of range
		{Kind: "fault", IntervalMs: -1},                // negative timing
		{Kind: "mobility", Speeds: []float64{-3}},      // negative speed
		{Kind: "mobility", Model: "brownian"},          // unknown model
		{Kind: "group-size", RefreshIntervalMs: 200},   // axis-shape field on group-size
	}
	for i, s := range bad {
		if _, err := s.Key(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

// TestFaultKindSplitComposes pins the shardable-job property for the fault
// kind: per-fraction sub-sweeps (value-labelled rounds) compute exactly
// the cells of the full sweep.
func TestFaultKindSplitComposes(t *testing.T) {
	spec := SweepSpec{Kind: "fault", FailFractions: []float64{0, 0.2}, Runs: 1,
		GroupSize: 5, Packets: 2, Seed: 9, Protocols: []string{"mtmrp", "odmrp"}}
	full, err := RunSweepFromSpec(spec, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	subs, err := spec.Split()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("split into %d sub-sweeps, want 2", len(subs))
	}
	for si, sub := range subs {
		part, err := RunSweepFromSpec(sub, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for pi := range full {
			if len(part[pi].Cells) != 1 {
				t.Fatalf("sub-sweep %d protocol %d has %d rows, want 1", si, pi, len(part[pi].Cells))
			}
			if !reflect.DeepEqual(part[pi].Cells[0], full[pi].Cells[si]) {
				t.Errorf("%s fraction %d: sub-sweep cells diverged from the full sweep",
					part[pi].Protocol, si)
			}
		}
	}
}

// TestMobilityKindSplitComposes pins the same property for the mobility
// kind's (speed, pause) axis.
func TestMobilityKindSplitComposes(t *testing.T) {
	spec := SweepSpec{Kind: "mobility", Speeds: []float64{0, 10}, PausesMs: []float64{0},
		Runs: 1, GroupSize: 5, Packets: 2, Seed: 9, Protocols: []string{"mtmrp", "odmrp"}}
	full, err := RunSweepFromSpec(spec, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	subs, err := spec.Split()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("split into %d sub-sweeps, want 2", len(subs))
	}
	for si, sub := range subs {
		part, err := RunSweepFromSpec(sub, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for pi := range full {
			if !reflect.DeepEqual(part[pi].Cells[0], full[pi].Cells[si]) {
				t.Errorf("%s point %d: sub-sweep cells diverged from the full sweep",
					part[pi].Protocol, si)
			}
		}
	}
}

// TestRunFromSpecDeterministic pins the property the cache key certifies:
// a run spec is a pure function — fresh vs. pooled execution and repeated
// materialisation all yield identical results, and the stochastic pieces
// (receiver draw, fault schedule) are reproducible from the spec alone.
func TestRunFromSpecDeterministic(t *testing.T) {
	spec := RunSpec{
		Topo: TopoSpec{Kind: "random", Nodes: 80, Seed: 5}, GroupSize: 12,
		Protocol: "mtmrp", Seed: 21,
		Faults:  FaultsSpec{FailFraction: 0.05, Loss: true},
		Traffic: TrafficSpec{DataPackets: 3, IntervalMs: 50},
	}
	a, err := RunFromSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFromSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Result, b.Result) || !reflect.DeepEqual(a.Robustness, b.Robustness) {
		t.Fatal("two materialisations of the same spec diverged")
	}
	c, err := RunFromSpec(spec, NewSessionPool())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Result, c.Result) || !reflect.DeepEqual(a.Robustness, c.Robustness) {
		t.Fatal("pooled execution diverged from fresh")
	}
	sc1, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc1.Receivers, sc2.Receivers) {
		t.Error("receiver draw not reproducible from the spec")
	}
	if !reflect.DeepEqual(sc1.Faults.Schedule, sc2.Faults.Schedule) {
		t.Error("fault schedule not reproducible from the spec")
	}
	if sc1.Seed != sc2.Seed {
		t.Error("session seed not reproducible from the spec")
	}
}

// goldenSpecs are the frozen key fixtures of testdata/golden_keys.json.
// They cover both kinds, both topology families, alias spellings, faults
// and mobility — any accidental change to canonicalization, to the
// canonical JSON layout, or to the version constants shifts these hashes
// and fails TestGoldenKeys.
func goldenSpecs() (sweeps map[string]SweepSpec, runs map[string]RunSpec) {
	mobileGrouped := optionRunSpec()
	sweeps = map[string]SweepSpec{
		"fig5-default":    {},
		"fig6-random":     {Topo: "random", Seed: 7},
		"small-grid-pair": {Sizes: []int{20, 10}, Runs: 5, Protocols: []string{"ODMRP", "mtmrp"}},
		"tuned-n8-delta2": {N: 8, DeltaMs: 2, Seed: 1},
		"flooding-vs-gmr": {Protocols: []string{"flooding", "gmr"}, Runs: 10},
		"fault-default":   {Kind: "fault", Seed: 11},
		"fault-lossy":     {Kind: "faults", FailFractions: []float64{0.3, 0.1}, Loss: true, DowntimeMs: 400, Runs: 5, Seed: 11},
		"mobility-rwp":    {Kind: "mobility", Seed: 12},
		"mobility-rpgm":   {Kind: "mobility", Model: "RPGM", Speeds: []float64{10, 5}, PausesMs: []float64{0}, Runs: 4, Seed: 12},
	}
	runs = map[string]RunSpec{
		"default":       {},
		"mobile-ideal":  mobileGrouped,
		"faulty-random": {Topo: TopoSpec{Kind: "random", Nodes: 100, Seed: 2}, GroupSize: 15, Seed: 3, Faults: FaultsSpec{FailFraction: 0.1, Loss: true}, Traffic: TrafficSpec{DataPackets: 4, IntervalMs: 40}},
	}
	return sweeps, runs
}

// TestGoldenKeys compares every fixture's derived key against the frozen
// vectors. Regenerate with MTMRP_UPDATE_GOLDEN_KEYS=1 go test — but only
// after bumping CodeVersion/SpecVersion: a silent re-freeze would let
// stale cached results survive a behaviour change.
func TestGoldenKeys(t *testing.T) {
	sweeps, runs := goldenSpecs()
	got := struct {
		SpecVersion         int               `json:"spec_version"`
		ResultSchemaVersion int               `json:"result_schema_version"`
		CodeVersion         string            `json:"code_version"`
		Sweeps              map[string]string `json:"sweeps"`
		Runs                map[string]string `json:"runs"`
	}{
		SpecVersion: SpecVersion, ResultSchemaVersion: ResultSchemaVersion,
		CodeVersion: CodeVersion,
		Sweeps:      map[string]string{}, Runs: map[string]string{},
	}
	for name, s := range sweeps {
		k, err := s.Key()
		if err != nil {
			t.Fatalf("sweep %q: %v", name, err)
		}
		got.Sweeps[name] = k
	}
	for name, s := range runs {
		k, err := s.Key()
		if err != nil {
			t.Fatalf("run %q: %v", name, err)
		}
		got.Runs[name] = k
	}

	path := filepath.Join("testdata", "golden_keys.json")
	if os.Getenv("MTMRP_UPDATE_GOLDEN_KEYS") != "" {
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-froze %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden vectors (regenerate with MTMRP_UPDATE_GOLDEN_KEYS=1): %v", err)
	}
	var want struct {
		SpecVersion         int               `json:"spec_version"`
		ResultSchemaVersion int               `json:"result_schema_version"`
		CodeVersion         string            `json:"code_version"`
		Sweeps              map[string]string `json:"sweeps"`
		Runs                map[string]string `json:"runs"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if want.SpecVersion != got.SpecVersion || want.ResultSchemaVersion != got.ResultSchemaVersion ||
		want.CodeVersion != got.CodeVersion {
		t.Errorf("version triple changed: golden (%d,%d,%s), code (%d,%d,%s) — keys must be re-frozen deliberately",
			want.SpecVersion, want.ResultSchemaVersion, want.CodeVersion,
			got.SpecVersion, got.ResultSchemaVersion, got.CodeVersion)
	}
	if !reflect.DeepEqual(want.Sweeps, got.Sweeps) {
		t.Errorf("sweep keys drifted from the golden vectors:\ngolden: %v\nderived: %v", want.Sweeps, got.Sweeps)
	}
	if !reflect.DeepEqual(want.Runs, got.Runs) {
		t.Errorf("run keys drifted from the golden vectors:\ngolden: %v\nderived: %v", want.Runs, got.Runs)
	}
}

// FuzzSweepSpecCanonical holds the content-address invariants on any wire
// body that decodes (strictly, as mtmrd decodes it) and canonicalizes:
// Canonical is idempotent, a spec and its canonical form share one key,
// and the canonical form splits into sub-sweeps that each have a key. The
// golden key fixtures seed the corpus; testdata/fuzz holds raw wire
// spellings (aliases, whitespace, duplicates) the fixtures do not.
func FuzzSweepSpecCanonical(f *testing.F) {
	sweeps, _ := goldenSpecs()
	names := make([]string, 0, len(sweeps))
	for name := range sweeps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b, err := json.Marshal(sweeps[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var s SweepSpec
		if dec.Decode(&s) != nil {
			return
		}
		c, err := s.Canonical()
		if err != nil {
			return
		}
		cc, err := c.Canonical()
		if err != nil {
			t.Fatalf("canonical form %+v does not re-canonicalize: %v", c, err)
		}
		cj, _ := json.Marshal(c)
		ccj, _ := json.Marshal(cc)
		if !bytes.Equal(cj, ccj) {
			t.Fatalf("Canonical not idempotent:\n once  %s\n twice %s", cj, ccj)
		}
		// A canonical group-size spec carries backoff parameters every
		// protocol can run, so serving it can never panic a sweep worker.
		if c.Kind == "" && (c.N < 1 || !(c.DeltaMs > 0)) {
			t.Fatalf("canonical group-size spec %s has n=%d delta_ms=%g", cj, c.N, c.DeltaMs)
		}
		k, err := s.Key()
		if err != nil {
			t.Fatalf("spec canonicalizes but has no key: %v", err)
		}
		if kc, err := c.Key(); err != nil || kc != k {
			t.Fatalf("Key(s) = %s, Key(Canonical(s)) = %s (%v)", k, kc, err)
		}
		subs, err := c.Split()
		if err != nil || len(subs) == 0 {
			t.Fatalf("canonical form %s does not split: %d subs, %v", cj, len(subs), err)
		}
		for _, sub := range subs {
			if _, err := sub.Key(); err != nil {
				t.Fatalf("sub-sweep %+v of %s has no key: %v", sub, cj, err)
			}
		}
	})
}
