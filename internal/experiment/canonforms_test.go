package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/format"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mtmrp/internal/mobility"
)

// The canonical-forms table pins the wire canonicalization of both spec
// types: for every body in canonFormBodies, the canonical JSON and key it
// reduces to, or the error it is rejected with. Keys alone (golden_keys.json)
// cover a handful of fixtures; this table covers every accepted name
// spelling, every SweepSpec field set alone on every kind, negative and
// out-of-range values and a spread of RunSpec bodies, so a refactor of the
// canonicalizers cannot move any form, key or error message unnoticed.
//
// Regenerate canonforms_data_test.go with go test -run TestCanonicalForms
// -update — only when a form is meant to change, and together with a
// SpecVersion or CodeVersion bump if a key moves.

// canonForm is one pinned body and what it canonicalizes to.
type canonForm struct {
	Name, Type, Body string // Type is "sweep" or "run"
	Canonical, Key   string // set when the body canonicalizes
	Err              string // set when it does not
}

// canonFormBodies lists the pinned bodies as (name, type, body).
func canonFormBodies() [][3]string {
	var out [][3]string
	add := func(name, typ, body string) { out = append(out, [3]string{name, typ, body}) }

	// The fuzz corpus seeds: the golden fixtures and the checked-in
	// corpus files.
	sweeps, runs := goldenSpecs()
	for _, name := range sortedKeys(sweeps) {
		b, _ := json.Marshal(sweeps[name])
		add("golden-sweep/"+name, "sweep", string(b))
	}
	for _, name := range sortedKeys(runs) {
		b, _ := json.Marshal(runs[name])
		add("golden-run/"+name, "run", string(b))
	}
	corpus, _ := os.ReadDir("testdata/fuzz/FuzzSweepSpecCanonical")
	for _, e := range corpus {
		raw, err := os.ReadFile("testdata/fuzz/FuzzSweepSpecCanonical/" + e.Name())
		if err != nil {
			continue
		}
		var body []byte
		if _, err := fmt.Sscanf(strings.SplitN(string(raw), "\n", 2)[1], "[]byte(%q)", &body); err == nil {
			add("corpus/"+e.Name(), "sweep", string(body))
		}
	}

	// Every kind, protocol, topology and model spelling.
	for _, k := range []string{"", "group-size", "group_size", "groupsize", "Group-Size",
		"fault", "faults", " FAULT ", "mobility", "mobile", "Mobility", "bogus", "group size"} {
		add("kind/"+k, "sweep", fmt.Sprintf(`{"kind":%q}`, k))
	}
	protos := []string{"mtmrp", "MTMRP", " mtmrp ", "mtmrp-nophs", "MTMRP w/o PHS", "mtmrpnophs",
		"dodmrp", "DODMRP", "odmrp", "ODMRP", "flooding", "Flooding", "gmr", "GMR", "bogus", ""}
	for _, p := range protos {
		add("protocol/"+p, "sweep", fmt.Sprintf(`{"protocols":[%q]}`, p))
		add("protocol/"+p, "run", fmt.Sprintf(`{"topo":{"kind":"grid"},"protocol":%q}`, p))
	}
	for _, topo := range []string{"", "grid", "Grid", " random ", "RANDOM", "file", "bogus"} {
		add("topo/"+topo, "sweep", fmt.Sprintf(`{"topo":%q}`, topo))
		add("topo/"+topo, "run", fmt.Sprintf(`{"topo":{"kind":%q}}`, topo))
	}
	for _, m := range []string{"", "waypoint", "Waypoint", "random-waypoint", "rwp", "RWP", "rpgm",
		" RPGM ", "none", "static", "bogus"} {
		add("model/"+m, "sweep", fmt.Sprintf(`{"kind":"mobility","model":%q}`, m))
		add("model/"+m, "run", fmt.Sprintf(`{"topo":{"kind":"grid"},"traffic":{"interval_ms":50},"mobility":{"model":%q,"max_speed":5}}`, m))
	}

	// Every SweepSpec field set alone, then negative, on every kind.
	fields := [][2]string{
		{"topo", `"random"`}, {"sizes", `[10]`}, {"runs", `3`}, {"seed", `9`},
		{"protocols", `["odmrp"]`}, {"n", `6`}, {"delta_ms", `2`}, {"group_size", `12`},
		{"packets", `7`}, {"interval_ms", `40`}, {"refresh_interval_ms", `150`},
		{"forwarder_expiry_ms", `250`}, {"fail_fractions", `[0.2]`}, {"start_ms", `900`},
		{"window_ms", `300`}, {"downtime_ms", `100`}, {"loss", `true`}, {"model", `"rpgm"`},
		{"speeds", `[3]`}, {"pauses_ms", `[250]`},
	}
	negatives := [][2]string{
		{"sizes", `[-5]`}, {"sizes", `[0,5]`}, {"runs", `-1`}, {"n", `-1`}, {"delta_ms", `-1`},
		{"delta_ms", `1e-9`}, {"group_size", `-1`}, {"packets", `-1`}, {"interval_ms", `-1`},
		{"refresh_interval_ms", `-1`}, {"forwarder_expiry_ms", `-1`}, {"fail_fractions", `[-0.1]`},
		{"fail_fractions", `[1.5]`}, {"fail_fractions", `[0,1]`}, {"start_ms", `-1`},
		{"window_ms", `-1`}, {"downtime_ms", `-1`}, {"speeds", `[-1]`}, {"speeds", `[0]`},
		{"pauses_ms", `[-1]`},
	}
	for _, k := range []string{"", "fault", "mobility"} {
		for _, f := range fields {
			add(fmt.Sprintf("field/%s/%s", k, f[0]), "sweep", fmt.Sprintf(`{"kind":%q,%q:%s}`, k, f[0], f[1]))
		}
		for _, f := range negatives {
			add(fmt.Sprintf("negative/%s/%s=%s", k, f[0], f[1]), "sweep", fmt.Sprintf(`{"kind":%q,%q:%s}`, k, f[0], f[1]))
		}
	}
	for i, body := range []string{
		`{"sizes":[60,5,5,30],"runs":2,"protocols":["gmr","mtmrp","GMR"],"n":3,"delta_ms":0.5}`,
		`{"kind":"fault","fail_fractions":[0.3,0,0.3],"runs":4,"group_size":5,"protocols":["flooding"]}`,
		`{"kind":"mobility","speeds":[20,0,20],"pauses_ms":[500,0],"refresh_interval_ms":100}`,
		`{"kind":"fault","start_ms":0.5,"window_ms":0.25,"loss":true,"downtime_ms":1}`,
		// Empty lists, false flags and zeros of either sign count as unset.
		`{"kind":"fault","sizes":[],"speeds":[],"pauses_ms":[],"model":""}`,
		`{"kind":"mobility","start_ms":-0,"window_ms":-0,"loss":false,"fail_fractions":[]}`,
		`{"kind":"","delta_ms":-0,"n":0,"interval_ms":-0,"loss":false}`,
		`{"kind":"fault","start_ms":-0,"window_ms":-0,"delta_ms":-0}`,
	} {
		add(fmt.Sprintf("mixed/%d", i), "sweep", body)
	}

	// RunSpec bodies.
	for i, body := range []string{
		`{}`,
		`{"topo":{"kind":"grid","nodes":50,"side":10,"range":5,"seed":3}}`,
		`{"topo":{"kind":"random"}}`,
		`{"topo":{"kind":"random","nodes":1}}`,
		`{"topo":{"kind":"random","nodes":-3}}`,
		`{"topo":{"kind":"random","nodes":500,"seed":4}}`,
		`{"topo":{"kind":"random","nodes":300,"side":150,"range":30}}`,
		`{"topo":{"kind":"grid"},"group_size":-3}`,
		`{"topo":{"kind":"grid"},"group_size":7,"seed":5}`,
		`{"topo":{"kind":"grid"},"n":8,"delta_ms":2.5}`,
		`{"topo":{"kind":"grid"},"n":-1}`,
		`{"topo":{"kind":"grid"},"delta_ms":-1}`,
		`{"topo":{"kind":"grid"},"delta_ms":1e-9}`,
		`{"topo":{"kind":"grid"},"radio":{"mac":"CSMA"}}`,
		`{"topo":{"kind":"grid"},"radio":{"mac":" ideal ","disable_collisions":true,"shadowing_sigma_db":3}}`,
		`{"topo":{"kind":"grid"},"radio":{"mac":"bogus"}}`,
		`{"topo":{"kind":"grid"},"traffic":{"payload_len":-1}}`,
		`{"topo":{"kind":"grid"},"traffic":{"data_packets":-1}}`,
		`{"topo":{"kind":"grid"},"traffic":{"discovery_rounds":-1}}`,
		`{"topo":{"kind":"grid"},"traffic":{"interval_ms":-1}}`,
		`{"topo":{"kind":"grid"},"traffic":{"refresh_interval_ms":-1}}`,
		`{"topo":{"kind":"grid"},"traffic":{"payload_len":32,"data_packets":5,"discovery_rounds":3,"interval_ms":20,"refresh_interval_ms":100}}`,
		`{"topo":{"kind":"grid"},"faults":{"start_ms":100,"window_ms":50,"downtime_ms":10}}`,
		`{"topo":{"kind":"grid"},"faults":{"fail_fraction":0.2}}`,
		`{"topo":{"kind":"grid"},"faults":{"fail_fraction":0.2,"start_ms":300,"window_ms":100,"downtime_ms":50}}`,
		`{"topo":{"kind":"grid"},"faults":{"loss":true}}`,
		`{"topo":{"kind":"grid"},"faults":{"forwarder_expiry_ms":300}}`,
		`{"topo":{"kind":"grid"},"faults":{"fail_fraction":-0.5,"start_ms":100}}`,
		`{"topo":{"kind":"grid"},"mobility":{"model":"none","max_speed":5,"groups":3}}`,
		`{"topo":{"kind":"grid"},"mobility":{"model":"waypoint","max_speed":5}}`,
		`{"topo":{"kind":"grid"},"traffic":{"interval_ms":50},"mobility":{"model":"waypoint","max_speed":0}}`,
		`{"topo":{"kind":"grid"},"traffic":{"interval_ms":50},"mobility":{"model":"rpgm","max_speed":8,"min_speed":2,"pause_ms":100,"step_ms":20,"groups":2}}`,
		`{"topo":{"kind":"grid"},"traffic":{"interval_ms":50},"mobility":{"model":"rwp","max_speed":8,"min_speed":-1,"step_ms":-5,"groups":-1}}`,
		`{"topo":{"kind":"grid"},"mobility":{"min_speed":3,"max_speed":5,"pause_ms":100}}`,
	} {
		add(fmt.Sprintf("run/%d", i), "run", body)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// canonicalForm decodes a body strictly, as mtmrd does, and reduces it.
func canonicalForm(name, typ, body string) canonForm {
	f := canonForm{Name: name, Type: typ, Body: body}
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	var (
		c   any
		key string
		err error
	)
	switch typ {
	case "sweep":
		var s SweepSpec
		if err = dec.Decode(&s); err == nil {
			if c, err = s.Canonical(); err == nil {
				key, err = s.Key()
			}
		}
	case "run":
		var s RunSpec
		if err = dec.Decode(&s); err == nil {
			if c, err = s.Canonical(); err == nil {
				key, err = s.Key()
			}
		}
	}
	if err != nil {
		f.Err = err.Error()
		return f
	}
	enc, _ := json.Marshal(c)
	f.Canonical, f.Key = string(enc), key
	return f
}

// TestCanonicalForms holds every pinned body to the canonical JSON and key,
// or the error text, recorded in canonforms_data_test.go.
func TestCanonicalForms(t *testing.T) {
	if *updateGolden {
		var buf bytes.Buffer
		writeCanonForms(&buf)
		src, err := format.Source(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("canonforms_data_test.go", src, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("re-recorded canonforms_data_test.go")
		return
	}
	seen := map[[2]string]bool{}
	for _, want := range canonForms {
		id := [2]string{want.Type, want.Name}
		if seen[id] {
			t.Errorf("duplicate pinned form %s %q", want.Type, want.Name)
		}
		seen[id] = true
		if got := canonicalForm(want.Name, want.Type, want.Body); got != want {
			t.Errorf("%s %q: body %s\n got  canonical=%s key=%s err=%q\n want canonical=%s key=%s err=%q",
				want.Type, want.Name, want.Body, got.Canonical, got.Key, got.Err,
				want.Canonical, want.Key, want.Err)
		}
	}
	if len(canonForms) < 250 {
		t.Errorf("only %d pinned forms", len(canonForms))
	}
}

func writeCanonForms(w io.Writer) {
	fmt.Fprintln(w, "// Code generated by TestCanonicalForms with -update; DO NOT EDIT.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "package experiment")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "var canonForms = []canonForm{")
	for _, b := range canonFormBodies() {
		f := canonicalForm(b[0], b[1], b[2])
		fmt.Fprintf(w, "{Name: %q, Type: %q, Body: %q,\n", f.Name, f.Type, f.Body)
		if f.Err != "" {
			fmt.Fprintf(w, "Err: %q},\n", f.Err)
		} else {
			fmt.Fprintf(w, "Canonical: %q,\nKey: %q},\n", f.Canonical, f.Key)
		}
	}
	fmt.Fprintln(w, "}")
}

// TestSweepSpecFieldOwnership checks that every SweepSpec field declares
// its owning kinds exactly once, naming "all" or registered kinds only.
func TestSweepSpecFieldOwnership(t *testing.T) {
	labels := map[string]bool{}
	for _, k := range sweepKinds {
		labels[k.label] = true
	}
	typ := reflect.TypeFor[SweepSpec]()
	for i := range typ.NumField() {
		f := typ.Field(i)
		if n := strings.Count(string(f.Tag), `kinds:"`); n != 1 {
			t.Errorf("SweepSpec.%s declares its owners %d times, want once", f.Name, n)
			continue
		}
		owners := f.Tag.Get("kinds")
		if owners == "all" {
			continue
		}
		for _, o := range strings.Split(owners, ",") {
			if !labels[o] {
				t.Errorf("SweepSpec.%s names unknown kind %q", f.Name, o)
			}
		}
	}
}

// TestNameTables checks that every protocol, topology kind and motion
// model parses back from each name the tables print, and that the
// spellings only the command-line tools accepted before the tables were
// shared now parse everywhere.
func TestNameTables(t *testing.T) {
	for p := range Protocol(len(protocolNames)) {
		for _, name := range []string{p.String(), protocolSpecName(p)} {
			if got, err := ParseProtocol(name); err != nil || got != p {
				t.Errorf("ParseProtocol(%q) = %v, %v; want %v", name, got, err, p)
			}
		}
	}
	for name, want := range map[string]Protocol{"nophs": MTMRPNoPHS, "flood": Flooding, "Geographic": GMR} {
		if got, err := ParseProtocol(name); err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, k := range []TopoKind{GridTopo, RandomTopo} {
		if got, err := ParseTopoKind(k.String()); err != nil || got != k {
			t.Errorf("ParseTopoKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, m := range []mobility.Model{mobility.None, mobility.RandomWaypoint, mobility.RPGM} {
		if got, ok := mobility.ParseModel(m.String()); !ok || got != m {
			t.Errorf("ParseModel(%q) = %v, %v", m.String(), got, ok)
		}
	}
	if _, ok := mobility.ParseModel(""); ok {
		t.Error(`ParseModel("") resolved a model; an omitted model is the caller's default`)
	}
}
