package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mtmrp/internal/experiment"
)

// tinySweep is a small but real sweep spec (2 sizes x 2 runs x 2
// protocols = 8 sessions) the serving tests compute in milliseconds.
func tinySweep() experiment.SweepSpec {
	return experiment.SweepSpec{
		Topo: "grid", Sizes: []int{5, 10}, Runs: 2, Seed: 42,
		Protocols: []string{"mtmrp", "odmrp"},
	}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.StorePath == "" {
		cfg.StorePath = filepath.Join(t.TempDir(), "results.store")
	}
	if cfg.SweepWorkers == 0 {
		cfg.SweepWorkers = 2
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// TestMissThenHitByteIdentical is the cache-correctness core: a miss
// computes, every later hit — from cache, from store, from a cold second
// instance — returns byte-identical payloads, and an independent fresh
// computation of the same spec produces those exact bytes.
func TestMissThenHitByteIdentical(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.store")
	svc := newTestService(t, Config{StorePath: path})
	spec := tinySweep()

	miss, err := svc.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Hit || miss.Source != "computed" {
		t.Fatalf("first submission = %+v, want a computed miss", miss)
	}
	hit, err := svc.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Hit || hit.Source != "cache" {
		t.Fatalf("second submission = source %q hit %v, want a cache hit", hit.Source, hit.Hit)
	}
	if !bytes.Equal(miss.Payload, hit.Payload) {
		t.Fatal("cache hit payload differs from the computed payload")
	}
	if miss.Key != hit.Key {
		t.Fatalf("keys diverged: %s vs %s", miss.Key, hit.Key)
	}

	// A completely fresh service (cold cache, no store) recomputes the
	// identical bytes — the determinism the cache key certifies.
	svc2 := newTestService(t, Config{StorePath: filepath.Join(dir, "other.store")})
	fresh, err := svc2.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Source != "computed" {
		t.Fatalf("fresh instance served from %q, want computed", fresh.Source)
	}
	if !bytes.Equal(miss.Payload, fresh.Payload) {
		t.Fatal("independent recomputation is not byte-identical")
	}

	// The payload parses and excludes anything nondeterministic.
	var pl SweepPayload
	if err := json.Unmarshal(miss.Payload, &pl); err != nil {
		t.Fatal(err)
	}
	if pl.Kind != "sweep" || pl.Key != miss.Key || len(pl.Curves) != 2 {
		t.Fatalf("payload = kind %q key %q curves %d", pl.Kind, pl.Key, len(pl.Curves))
	}
	if pl.Curves[0].Protocol != "mtmrp" || len(pl.Curves[0].Cells) != 2 {
		t.Fatalf("curve 0 = %q with %d cells", pl.Curves[0].Protocol, len(pl.Curves[0].Cells))
	}
}

// TestSingleflightCollapsesConcurrentSubmissions asserts the acceptance
// property directly: 8 concurrent identical submissions execute exactly
// one sweep. The compute is parked on a gate until all 7 duplicates have
// attached to the leader's flight, so the collapse is deterministic.
func TestSingleflightCollapsesConcurrentSubmissions(t *testing.T) {
	const submissions = 8
	gate := make(chan struct{})
	svc := newTestService(t, Config{
		Hooks: Hooks{ComputeStarted: func(string) { <-gate }},
	})
	spec := tinySweep()
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}

	results := make([]Result, submissions)
	errs := make([]error, submissions)
	var wg sync.WaitGroup
	for i := 0; i < submissions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Sweep(spec)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.flights.Waiters(key) < submissions-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d duplicates attached to the flight", svc.flights.Waiters(key))
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if n := svc.computes.Load(); n != 1 {
		t.Fatalf("%d sweep executions for %d concurrent submissions, want exactly 1", n, submissions)
	}
	if n := svc.coalesced.Load(); n != submissions-1 {
		t.Errorf("%d submissions coalesced, want %d", n, submissions-1)
	}
	nShared := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i].Payload, results[0].Payload) {
			t.Fatalf("submission %d payload differs", i)
		}
		if results[i].Shared {
			nShared++
		}
	}
	if nShared != submissions-1 {
		t.Errorf("%d results marked shared, want %d", nShared, submissions-1)
	}
	if appends, _ := svc.store.Stats(); appends != 1 {
		t.Errorf("store got %d appends, want 1", appends)
	}
}

// TestLRUEvictionFallsBackToStore: with a 1-entry cache, computing a
// second spec evicts the first; re-requesting the first is served from the
// on-disk store (not recomputed), and a cold restart reloads it too.
func TestLRUEvictionFallsBackToStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.store")
	svc := newTestService(t, Config{StorePath: path, CacheEntries: 1})
	specA, specB := tinySweep(), tinySweep()
	specB.Seed = 43

	a1, err := svc.Sweep(specA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Sweep(specB); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, evictions := svc.cache.Stats(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (cache capacity 1)", evictions)
	}
	a2, err := svc.Sweep(specA)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Source != "store" || !a2.Hit {
		t.Fatalf("evicted entry served from %q, want store", a2.Source)
	}
	if !bytes.Equal(a1.Payload, a2.Payload) {
		t.Fatal("store payload differs from the computed payload")
	}
	if n := svc.computes.Load(); n != 2 {
		t.Fatalf("computes = %d, want 2 (the store served the repeat)", n)
	}

	// Cold restart on the same store file: still a hit, still identical.
	svc.Close()
	svc2, err := New(Config{StorePath: path, SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	a3, err := svc2.Sweep(specA)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Source != "store" {
		t.Fatalf("restarted instance served from %q, want store", a3.Source)
	}
	if !bytes.Equal(a1.Payload, a3.Payload) {
		t.Fatal("restarted store payload differs")
	}
}

// TestCorruptStoreEntryRecomputed: a bit-flipped stored record reads as
// corrupt, the service recomputes byte-identical bytes and supersedes it.
func TestCorruptStoreEntryRecomputed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.store")
	svc := newTestService(t, Config{StorePath: path})
	spec := tinySweep()
	orig, err := svc.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	// Flip one byte inside the stored payload.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-40] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(Config{StorePath: path, SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if _, err := svc2.store.Get(orig.Key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted record read as %v, want ErrCorrupt", err)
	}
	res, err := svc2.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "computed" {
		t.Fatalf("corrupt entry served from %q, want recomputed", res.Source)
	}
	if !bytes.Equal(orig.Payload, res.Payload) {
		t.Fatal("recomputation after corruption is not byte-identical")
	}
	// The fresh append superseded the bad record: reads are clean again.
	if got, err := svc2.store.Get(orig.Key); err != nil || !bytes.Equal(got, orig.Payload) {
		t.Fatalf("store after recompute: %v", err)
	}
}

// TestDrainServesHitsRefusesComputes pins graceful-drain semantics.
func TestDrainServesHitsRefusesComputes(t *testing.T) {
	svc := newTestService(t, Config{})
	cached := tinySweep()
	if _, err := svc.Sweep(cached); err != nil {
		t.Fatal(err)
	}
	svc.Drain()

	hit, err := svc.Sweep(cached)
	if err != nil || !hit.Hit {
		t.Fatalf("draining service refused a cached result: %+v, %v", hit, err)
	}
	fresh := tinySweep()
	fresh.Seed = 99
	if _, err := svc.Sweep(fresh); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining service accepted a new computation: %v", err)
	}
}

// TestRunSpecServing covers the single-session endpoint path end to end:
// miss, hit, byte identity, flat/grouped aliases sharing one cache slot.
func TestRunSpecServing(t *testing.T) {
	svc := newTestService(t, Config{})
	spec := experiment.RunSpec{GroupSize: 8, Protocol: "mtmrp", Seed: 5}
	miss, err := svc.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := svc.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Hit || !bytes.Equal(miss.Payload, hit.Payload) {
		t.Fatal("run spec repeat did not hit identically")
	}
	var pl RunPayload
	if err := json.Unmarshal(miss.Payload, &pl); err != nil {
		t.Fatal(err)
	}
	if pl.Kind != "run" || pl.Result.ReceiverCount != 8 {
		t.Fatalf("run payload = %+v", pl)
	}

	// A flat-alias spelling of an equivalent spec hits the same slot
	// without computing (the key-identity satellite, observed end to end).
	flat, grouped := specAliases()
	if _, err := svc.Run(grouped); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run(flat)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Error("flat alias spelling missed the grouped spelling's cache slot")
	}
}

// specAliases returns one session spelled through flat aliases and through
// grouped specs (no mobility, so it stays cheap).
func specAliases() (flat, grouped experiment.RunSpec) {
	base := experiment.RunSpec{GroupSize: 6, Protocol: "odmrp", Seed: 17}
	flat, grouped = base, base
	flat.MAC = "ideal"
	flat.DisableCollisions = true
	flat.PayloadLen = 96
	grouped.Radio = experiment.RadioSpec{MAC: "ideal", DisableCollisions: true}
	grouped.Traffic.PayloadLen = 96
	return flat, grouped
}

// TestShardOwnership pins key-range ownership: a 2-shard instance serves
// only its residue class and names the owner of the rest.
func TestShardOwnership(t *testing.T) {
	// Find two specs landing on different shards of a 2-way split.
	specs := make([]experiment.SweepSpec, 0, 2)
	var owned, foreign experiment.SweepSpec
	found := [2]bool{}
	for seed := uint64(1); seed < 50 && (!found[0] || !found[1]); seed++ {
		s := tinySweep()
		s.Seed = seed
		key, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		owner := Shard{Count: 2}.Owner(key)
		if !found[owner] {
			found[owner] = true
			if owner == 0 {
				owned = s
			} else {
				foreign = s
			}
			specs = append(specs, s)
		}
	}
	if len(specs) != 2 {
		t.Fatal("could not find keys on both shards")
	}

	svc := newTestService(t, Config{Shard: Shard{Index: 0, Count: 2}})
	if _, err := svc.Sweep(owned); err != nil {
		t.Fatalf("owned key refused: %v", err)
	}
	if _, err := svc.Sweep(foreign); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("foreign key accepted: %v", err)
	}

	// Ownership is a pure function of the key: every shard agrees.
	fk, _ := foreign.Key()
	if (Shard{Index: 1, Count: 2}).Owner(fk) != (Shard{Index: 0, Count: 2}).Owner(fk) {
		t.Error("shards disagree on ownership")
	}
	if !(Shard{Index: 1, Count: 2}).Owns(fk) {
		t.Error("owning shard does not own its key")
	}
	if !(Shard{}).Owns(fk) {
		t.Error("zero shard must own everything")
	}
}

// TestHTTPAPI drives the whole HTTP surface: miss-then-hit with the cache
// headers, byte-identical bodies, result fetch by key, split, stats,
// healthz, drain (503) and shard rejection (421).
func TestHTTPAPI(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	specJSON := `{"topo":"grid","sizes":[5,10],"runs":2,"seed":42,"protocols":["mtmrp","odmrp"]}`
	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	resp1, body1 := post("/v1/sweep", specJSON)
	if resp1.StatusCode != 200 || resp1.Header.Get("X-Mtmrd-Cache") != "miss" {
		t.Fatalf("first POST: status %d cache %q", resp1.StatusCode, resp1.Header.Get("X-Mtmrd-Cache"))
	}
	resp2, body2 := post("/v1/sweep", specJSON)
	if resp2.Header.Get("X-Mtmrd-Cache") != "hit" || resp2.Header.Get("X-Mtmrd-Source") != "cache" {
		t.Fatalf("second POST: cache %q source %q",
			resp2.Header.Get("X-Mtmrd-Cache"), resp2.Header.Get("X-Mtmrd-Source"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("hit body differs from miss body")
	}
	key := resp1.Header.Get("X-Mtmrd-Key")
	if key == "" || key != resp2.Header.Get("X-Mtmrd-Key") {
		t.Fatalf("key headers: %q vs %q", key, resp2.Header.Get("X-Mtmrd-Key"))
	}

	// Fetch by key (never computes).
	resp3, body3 := getResp(t, ts.URL+"/v1/result/"+key)
	if resp3.StatusCode != 200 || !bytes.Equal(body1, body3) {
		t.Fatalf("GET /v1/result: status %d, identical %v", resp3.StatusCode, bytes.Equal(body1, body3))
	}
	if resp, _ := getResp(t, ts.URL+"/v1/result/"+strings.Repeat("0", 64)); resp.StatusCode != 404 {
		t.Fatalf("GET unknown result: status %d, want 404", resp.StatusCode)
	}

	// Unknown fields and invalid specs are 400s.
	if resp, _ := post("/v1/sweep", `{"topoo":"grid"}`); resp.StatusCode != 400 {
		t.Fatalf("typo'd field: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post("/v1/sweep", `{"topo":"torus"}`); resp.StatusCode != 400 {
		t.Fatalf("bad topo: status %d, want 400", resp.StatusCode)
	}

	// Split returns one owned sub-job per size.
	respSplit, bodySplit := post("/v1/sweep/split", specJSON)
	if respSplit.StatusCode != 200 {
		t.Fatalf("split: status %d", respSplit.StatusCode)
	}
	var split struct {
		Jobs []struct {
			Key   string               `json:"key"`
			Owner int                  `json:"owner"`
			Spec  experiment.SweepSpec `json:"spec"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(bodySplit, &split); err != nil {
		t.Fatal(err)
	}
	if len(split.Jobs) != 2 || len(split.Jobs[0].Spec.Sizes) != 1 {
		t.Fatalf("split = %+v", split.Jobs)
	}

	// Stats reflect the serving above.
	var st Stats
	if _, b := getResp(t, ts.URL+"/v1/stats"); json.Unmarshal(b, &st) != nil {
		t.Fatal("stats did not parse")
	} else if st.Computes != 1 || st.CacheHits < 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Drain: healthz flips to 503, cached results still served, new
	// computations refused with 503.
	if resp, _ := getResp(t, ts.URL+"/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz while serving: %d", resp.StatusCode)
	}
	svc.Drain()
	if resp, _ := getResp(t, ts.URL+"/healthz"); resp.StatusCode != 503 {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	if resp, _ := post("/v1/sweep", specJSON); resp.Header.Get("X-Mtmrd-Cache") != "hit" {
		t.Fatal("draining server no longer serves cached results")
	}
	if resp, _ := post("/v1/sweep", `{"topo":"grid","sizes":[5],"runs":1,"seed":77}`); resp.StatusCode != 503 {
		t.Fatalf("draining server accepted a new computation: %d", resp.StatusCode)
	}
}

// TestHTTPShardRejection pins the 421 path for keys outside the shard.
func TestHTTPShardRejection(t *testing.T) {
	svc := newTestService(t, Config{Shard: Shard{Index: 0, Count: 2}})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for seed := uint64(1); seed < 50; seed++ {
		s := tinySweep()
		s.Seed = seed
		key, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		if (Shard{Index: 0, Count: 2}).Owns(key) {
			continue
		}
		enc, _ := json.Marshal(s)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Fatalf("foreign key: status %d, want 421", resp.StatusCode)
		}
		if resp.Header.Get("X-Mtmrd-Owner") != "1" {
			t.Fatalf("owner header = %q, want 1", resp.Header.Get("X-Mtmrd-Owner"))
		}
		return
	}
	t.Fatal("no foreign key found")
}

// TestHTTPStreaming checks the NDJSON progress path: a streamed miss ends
// in a result line whose payload equals the non-streamed body, and a
// streamed hit returns its result line immediately.
func TestHTTPStreaming(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	spec := `{"topo":"grid","sizes":[5,10],"runs":4,"seed":7,"protocols":["mtmrp","odmrp"]}`
	stream := func() (lines []streamLine) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweep?stream=1", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("stream content type %q", ct)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ln streamLine
			if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			lines = append(lines, ln)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return lines
	}

	first := stream()
	if len(first) == 0 {
		t.Fatal("empty stream")
	}
	last := first[len(first)-1]
	if last.Type != "result" || last.Cache != "miss" {
		t.Fatalf("final line = %+v, want a miss result", last)
	}
	for _, ln := range first[:len(first)-1] {
		if ln.Type != "progress" || ln.Progress == nil || ln.Progress.Total == 0 {
			t.Fatalf("non-progress interior line %+v", ln)
		}
	}

	second := stream()
	if len(second) != 1 || second[0].Type != "result" || second[0].Cache != "hit" {
		t.Fatalf("streamed repeat = %+v, want one immediate hit line", second)
	}
	if !bytes.Equal(second[0].Result, last.Result) {
		t.Fatal("streamed hit payload differs from the miss payload")
	}
}

// TestPrewarmedPoolsAreInvisible pins the pre-warm contract: a service
// with warmed pools serves byte-identical payloads to a cold one, and the
// warmed pools are actually reused (no extra pools built for a sweep that
// fits the bank).
func TestPrewarmedPoolsAreInvisible(t *testing.T) {
	cold := newTestService(t, Config{SweepWorkers: 2})
	warm := newTestService(t, Config{SweepWorkers: 2, WarmPools: 2})
	if free, created := warm.bank.Size(); free != 2 || created != 2 {
		t.Fatalf("bank after prewarm: free %d created %d", free, created)
	}
	spec := tinySweep()
	a, err := cold.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := warm.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Payload, b.Payload) {
		t.Fatal("pre-warmed pools changed the result bytes")
	}
	if free, created := warm.bank.Size(); free != 2 || created != 2 {
		t.Errorf("bank after sweep: free %d created %d, want the 2 warmed pools back", free, created)
	}
}

// TestErrorEnvelope pins the structured error body on every /v1/* failure
// path: same status codes as before, JSON envelope with a stable machine
// code instead of plain text.
func TestErrorEnvelope(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	decode := func(t *testing.T, b []byte) APIError {
		t.Helper()
		var env APIError
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatalf("error body is not an envelope: %v (%s)", err, b)
		}
		if env.Error == "" {
			t.Fatal("envelope has an empty error message")
		}
		return env
	}

	// Malformed key: rejected as bad_key before any lookup, not a 404.
	resp, b := getResp(t, ts.URL+"/v1/result/not-a-key")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key: status %d, want 400", resp.StatusCode)
	}
	if env := decode(t, b); env.Code != "bad_key" {
		t.Errorf("malformed key: code %q, want bad_key", env.Code)
	}
	// Uppercase hex is malformed too: keys are canonical lowercase.
	resp, b = getResp(t, ts.URL+"/v1/result/"+strings.Repeat("A", 64))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("uppercase key: status %d, want 400", resp.StatusCode)
	}

	// Well-formed but absent key: still a 404, now with code not_found.
	absent := strings.Repeat("0", 64)
	resp, b = getResp(t, ts.URL+"/v1/result/"+absent)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent key: status %d, want 404", resp.StatusCode)
	}
	if env := decode(t, b); env.Code != "not_found" || env.Key != absent {
		t.Errorf("absent key: code %q key %q, want not_found/%s", env.Code, env.Key, absent)
	}

	// Body rejections: an invalid spec, a second JSON value after a valid
	// one (never served as the first spec's answer), and a valid spec
	// behind padding that pushes the body over the size bound.
	tiny, _ := json.Marshal(tinySweep())
	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"bad spec", `{"topo":"bogus"}`, http.StatusBadRequest, "bad_spec"},
		{"trailing data", string(tiny) + `{"runs":1}`, http.StatusBadRequest, "bad_spec"},
		{"oversized body", strings.Repeat(" ", maxSpecBytes) + string(tiny),
			http.StatusRequestEntityTooLarge, "too_large"},
	} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if env := decode(t, b); env.Code != tc.code {
			t.Errorf("%s: code %q, want %s", tc.name, env.Code, tc.code)
		}
	}

	// Key owned by another shard: 421 with code not_owned.
	spec := tinySweep()
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	owner := Shard{Count: 2}.Owner(key)
	other := newTestService(t, Config{Shard: Shard{Index: 1 - owner, Count: 2}})
	ts2 := httptest.NewServer(other.Handler())
	defer ts2.Close()
	body, _ := json.Marshal(spec)
	resp2, err := http.Post(ts2.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("wrong shard: status %d, want 421", resp2.StatusCode)
	}
	if env := decode(t, b); env.Code != "not_owned" {
		t.Errorf("wrong shard: code %q, want not_owned", env.Code)
	}
	if got := resp2.Header.Get("X-Mtmrd-Owner"); got != fmt.Sprint(owner) {
		t.Errorf("X-Mtmrd-Owner = %q, want %d", got, owner)
	}
}

// TestSweepKindsOverHTTP round-trips the registry's fault and mobility
// kinds through POST /v1/sweep: the kind dispatches, the payload carries
// the kind's metric axis and canonical spec, and a repeat is a cache hit.
func TestSweepKindsOverHTTP(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		name    string
		body    string
		kind    string
		metrics []string
		rows    int
	}{
		{
			name:    "fault",
			body:    `{"kind":"fault","fail_fractions":[0,0.2],"runs":1,"group_size":5,"packets":2,"seed":7,"protocols":["mtmrp","odmrp"]}`,
			kind:    "fault",
			metrics: []string{"mean_pdr", "min_pdr", "repairs", "repair_time_ms"},
			rows:    2,
		},
		{
			name:    "mobility",
			body:    `{"kind":"mobility","speeds":[0,5],"pauses_ms":[0],"runs":1,"group_size":5,"packets":2,"seed":7,"protocols":["mtmrp","odmrp"]}`,
			kind:    "mobility",
			metrics: []string{"mean_pdr", "min_pdr", "control_tx", "repairs"},
			rows:    2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			first, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, first)
			}
			var pl SweepPayload
			if err := json.Unmarshal(first, &pl); err != nil {
				t.Fatal(err)
			}
			if pl.Kind != "sweep" || pl.Spec.Kind != tc.kind {
				t.Fatalf("payload kind %q spec kind %q, want sweep/%s", pl.Kind, pl.Spec.Kind, tc.kind)
			}
			if len(pl.Metrics) != len(tc.metrics) {
				t.Fatalf("metrics = %v, want %v", pl.Metrics, tc.metrics)
			}
			for i, m := range tc.metrics {
				if pl.Metrics[i] != m {
					t.Fatalf("metrics = %v, want %v", pl.Metrics, tc.metrics)
				}
			}
			if len(pl.Curves) != 2 || len(pl.Curves[0].Cells) != tc.rows ||
				len(pl.Curves[0].Cells[0]) != len(tc.metrics) {
				t.Fatalf("curves %d x %d rows, want 2 x %d", len(pl.Curves), len(pl.Curves[0].Cells), tc.rows)
			}

			resp, err = http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			second, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if c := resp.Header.Get("X-Mtmrd-Cache"); c != "hit" {
				t.Fatalf("repeat: X-Mtmrd-Cache = %q, want hit", c)
			}
			if !bytes.Equal(first, second) {
				t.Fatal("repeat payload diverged")
			}
		})
	}
}

func getResp(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}
