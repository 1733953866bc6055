package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mtmrp/internal/experiment"
)

// fastFanout returns a FanoutConfig tuned so retry schedules complete in
// test time rather than operator time.
func fastFanout(t *testing.T, peers ...string) FanoutConfig {
	t.Helper()
	return FanoutConfig{
		Peers:       peers,
		Timeout:     30 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Logf:        t.Logf,
	}
}

// subOwners computes which peer owns each of spec's sub-sweeps, so tests
// can assert routing outcomes without hard-coding hash values.
func subOwners(t *testing.T, spec experiment.SweepSpec, peers int) []int {
	t.Helper()
	subs, err := spec.Split()
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]int, len(subs))
	for i, sub := range subs {
		key, err := sub.Key()
		if err != nil {
			t.Fatal(err)
		}
		owners[i] = Shard{Count: peers}.Owner(key)
	}
	return owners
}

// TestFanoutComposesBitIdentical is the tentpole property: a Figure-5
// sweep fanned out over two sharded peers and composed by the coordinator
// is byte-identical to the same sweep computed by a single instance, the
// coordinator itself computes nothing, and a repeat submission is a plain
// cache hit on the composed payload.
func TestFanoutComposesBitIdentical(t *testing.T) {
	spec := tinySweep()
	single := newTestService(t, Config{})
	want, err := single.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}

	shard0 := newTestService(t, Config{Shard: Shard{Index: 0, Count: 2}})
	shard1 := newTestService(t, Config{Shard: Shard{Index: 1, Count: 2}})
	ts0 := httptest.NewServer(shard0.Handler())
	defer ts0.Close()
	ts1 := httptest.NewServer(shard1.Handler())
	defer ts1.Close()

	front := newTestService(t, Config{})
	fan, err := NewFanout(front, fastFanout(t, ts0.URL, ts1.URL))
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(fan.Handler())
	defer coord.Close()

	body, _ := json.Marshal(spec)
	resp, err := http.Post(coord.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fanned-out sweep: status %d: %s", resp.StatusCode, got)
	}
	if src := resp.Header.Get("X-Mtmrd-Source"); src != "composed" {
		t.Fatalf("X-Mtmrd-Source = %q, want composed", src)
	}
	if !bytes.Equal(got, want.Payload) {
		t.Fatal("composed payload is not byte-identical to the single-instance run")
	}
	if c := front.StatsSnapshot().Computes; c != 0 {
		t.Fatalf("coordinator computed %d sweeps locally, want 0", c)
	}

	// A repeat submission hits the composed-payload cache.
	resp, err = http.Post(coord.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	again := readBody(t, resp)
	if c := resp.Header.Get("X-Mtmrd-Cache"); c != "hit" {
		t.Fatalf("repeat submission: X-Mtmrd-Cache = %q, want hit", c)
	}
	if !bytes.Equal(again, want.Payload) {
		t.Fatal("cached composed payload diverged")
	}

	// The stats endpoint reports the fanout section.
	resp, stats := getResp(t, coord.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Fanout == nil {
		t.Fatal("stats missing fanout section")
	}
	if st.Fanout.SubJobs < 2 || st.Fanout.Composed != 1 || len(st.Fanout.Peers) != 2 {
		t.Fatalf("fanout stats = %+v", st.Fanout)
	}
}

// TestFanoutComposesFaultKind runs the same bit-identity check for a
// registry kind whose axis is failure fractions rather than group sizes.
func TestFanoutComposesFaultKind(t *testing.T) {
	spec := experiment.SweepSpec{Kind: "fault", FailFractions: []float64{0, 0.2},
		Runs: 1, GroupSize: 5, Packets: 2, Seed: 7, Protocols: []string{"mtmrp", "odmrp"}}
	single := newTestService(t, Config{})
	want, err := single.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}

	shard0 := newTestService(t, Config{Shard: Shard{Index: 0, Count: 2}})
	shard1 := newTestService(t, Config{Shard: Shard{Index: 1, Count: 2}})
	ts0 := httptest.NewServer(shard0.Handler())
	defer ts0.Close()
	ts1 := httptest.NewServer(shard1.Handler())
	defer ts1.Close()

	fan, err := NewFanout(newTestService(t, Config{}), fastFanout(t, ts0.URL, ts1.URL))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fan.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "composed" || !bytes.Equal(res.Payload, want.Payload) {
		t.Fatalf("fault-kind fan-out: source %q, byte-identical %v",
			res.Source, bytes.Equal(res.Payload, want.Payload))
	}
}

// TestFanoutShardKilledFallsBackLocal kills one shard mid-sweep (its
// conns drop while requests are in flight, like a SIGKILL) and asserts
// the coordinator recomputes that shard's range locally — and that the
// composed payload is still byte-identical to a single-instance run.
func TestFanoutShardKilledFallsBackLocal(t *testing.T) {
	spec := experiment.SweepSpec{Topo: "grid", Sizes: []int{5, 10, 15, 20},
		Runs: 2, Seed: 42, Protocols: []string{"mtmrp", "odmrp"}}
	single := newTestService(t, Config{})
	want, err := single.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}

	shard0 := newTestService(t, Config{Shard: Shard{Index: 0, Count: 2}})
	ts0 := httptest.NewServer(shard0.Handler())
	defer ts0.Close()
	// Shard 1 is dead: every connection drops mid-request, exactly what a
	// coordinator sees after kill -9.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer dead.Close()

	owners := subOwners(t, spec, 2)
	deadOwned := 0
	for _, o := range owners {
		if o == 1 {
			deadOwned++
		}
	}
	if deadOwned == 0 {
		t.Fatalf("test spec routes nothing to the dead shard (owners %v); pick a different spec", owners)
	}

	front := newTestService(t, Config{})
	fan, err := NewFanout(front, fastFanout(t, ts0.URL, dead.URL))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fan.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, want.Payload) {
		t.Fatal("composed payload with a dead shard is not byte-identical to the single-instance run")
	}
	if got := fan.LocalFallbacks(); got != uint64(deadOwned) {
		t.Errorf("local fallbacks = %d, want %d (the dead shard's sub-sweeps)", got, deadOwned)
	}
	if c := front.StatsSnapshot().Computes; c != uint64(deadOwned) {
		t.Errorf("coordinator computed %d sweeps locally, want %d", c, deadOwned)
	}
	st := fan.StatsSnapshot()
	if !st.Peers[1].CircuitOpen && st.Peers[1].Failures == 0 {
		t.Errorf("dead peer state = %+v, want recorded failures", st.Peers[1])
	}
}

// TestFanoutRetriesFlakyPeer exercises the retry/backoff path against a
// peer that fails twice with 500 before recovering: the sub-job succeeds
// on the third attempt, with the retry budget and per-peer counters
// recording exactly two retries.
func TestFanoutRetriesFlakyPeer(t *testing.T) {
	spec := experiment.SweepSpec{Topo: "grid", Sizes: []int{5}, Runs: 2, Seed: 42,
		Protocols: []string{"mtmrp", "odmrp"}}
	peer := newTestService(t, Config{})
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeError(w, http.StatusInternalServerError, errNo("injected flake"))
			return
		}
		peer.Handler().ServeHTTP(w, r)
	}))
	defer flaky.Close()

	front := newTestService(t, Config{})
	cfg := fastFanout(t, flaky.URL)
	cfg.Retries = 2
	fan, err := NewFanout(front, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fan.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := peer.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, direct.Payload) {
		t.Fatal("payload through the flaky peer diverged")
	}
	st := fan.StatsSnapshot()
	if st.Retries != 2 || st.Peers[0].Requests != 3 || st.Peers[0].Retries != 2 {
		t.Errorf("retries %d, peer requests %d, peer retries %d; want 2/3/2",
			st.Retries, st.Peers[0].Requests, st.Peers[0].Retries)
	}
	if fan.LocalFallbacks() != 0 {
		t.Errorf("local fallbacks = %d, want 0 (retry succeeded)", fan.LocalFallbacks())
	}
}

// TestFanoutRetryBudgetExhausted pins what happens when the budget runs
// dry against a peer that never recovers: the sub-sweep falls back to a
// local recompute and the sweep still succeeds, byte-identically.
func TestFanoutRetryBudgetExhausted(t *testing.T) {
	spec := experiment.SweepSpec{Topo: "grid", Sizes: []int{5}, Runs: 2, Seed: 42,
		Protocols: []string{"mtmrp", "odmrp"}}
	var calls atomic.Int64
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusInternalServerError, errNo("still broken"))
	}))
	defer broken.Close()

	front := newTestService(t, Config{})
	cfg := fastFanout(t, broken.URL)
	cfg.Retries = -1 // explicit zero budget: one attempt per sub-job
	fan, err := NewFanout(front, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fan.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newTestService(t, Config{}).Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, want.Payload) {
		t.Fatal("fallback payload diverged from a direct computation")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("peer saw %d attempts, want exactly 1 (zero retry budget)", got)
	}
	if fan.LocalFallbacks() != 1 {
		t.Errorf("local fallbacks = %d, want 1", fan.LocalFallbacks())
	}
}

// TestFanoutPermanentErrorDoesNotFallBack: a 4xx spec rejection from a
// live peer means retrying or recomputing locally cannot help — the
// coordinator must surface it as a fan-out failure, not mask it.
func TestFanoutPermanentErrorDoesNotFallBack(t *testing.T) {
	spec := experiment.SweepSpec{Topo: "grid", Sizes: []int{5}, Runs: 2, Seed: 42,
		Protocols: []string{"mtmrp", "odmrp"}}
	var calls atomic.Int64
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusBadRequest, errNo("peer built from a newer spec version"))
	}))
	defer rejecting.Close()

	front := newTestService(t, Config{})
	fan, err := NewFanout(front, fastFanout(t, rejecting.URL))
	if err != nil {
		t.Fatal(err)
	}
	_, err = fan.Sweep(spec)
	var fe *FanoutError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FanoutError", err)
	}
	if len(fe.Subs) != 1 || !strings.Contains(fe.Subs[0].Error, "newer spec version") {
		t.Fatalf("fanout error subs = %+v", fe.Subs)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("peer saw %d attempts, want 1 (permanent errors are not retried)", got)
	}
	if fan.LocalFallbacks() != 0 {
		t.Errorf("local fallbacks = %d, want 0 (permanent errors do not fall back)", fan.LocalFallbacks())
	}
}

// TestFanoutCircuitBreaker opens a dead peer's circuit at threshold 1,
// verifies requests shed to the local fallback, then revives the peer and
// checks a health probe closes the circuit again.
func TestFanoutCircuitBreaker(t *testing.T) {
	spec := experiment.SweepSpec{Topo: "grid", Sizes: []int{5}, Runs: 2, Seed: 42,
		Protocols: []string{"mtmrp", "odmrp"}}
	var up atomic.Bool
	flappy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer flappy.Close()

	front := newTestService(t, Config{})
	cfg := fastFanout(t, flappy.URL)
	cfg.CircuitThreshold = 1
	cfg.CircuitCooldown = time.Hour // no half-open probe during the test
	fan, err := NewFanout(front, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fan.Sweep(spec); err != nil {
		t.Fatal(err)
	}
	st := fan.StatsSnapshot()
	if !st.Peers[0].CircuitOpen || st.Peers[0].Healthy {
		t.Fatalf("after a dead-peer sweep: peer = %+v, want open circuit", st.Peers[0])
	}
	if fan.LocalFallbacks() != 1 {
		t.Fatalf("local fallbacks = %d, want 1", fan.LocalFallbacks())
	}

	// Revive the peer; the health probe closes the circuit.
	up.Store(true)
	fan.ProbePeers()
	st = fan.StatsSnapshot()
	if st.Peers[0].CircuitOpen || !st.Peers[0].Healthy {
		t.Fatalf("after revival probe: peer = %+v, want closed circuit", st.Peers[0])
	}
}

// TestNewFanoutValidation pins the constructor's rejections.
func TestNewFanoutValidation(t *testing.T) {
	unsharded := newTestService(t, Config{})
	if _, err := NewFanout(unsharded, FanoutConfig{}); err == nil {
		t.Error("no peers accepted")
	}
	if _, err := NewFanout(unsharded, FanoutConfig{Peers: []string{"not a url"}}); err == nil {
		t.Error("bad peer URL accepted")
	}
	sharded := newTestService(t, Config{Shard: Shard{Index: 0, Count: 2}})
	if _, err := NewFanout(sharded, FanoutConfig{Peers: []string{"http://peer:1"}}); err == nil {
		t.Error("sharded local service accepted")
	}
}

// TestBackoffDelayBounded checks every jittered delay stays within
// [nominal/2, nominal] with the nominal schedule doubling up to the cap.
func TestBackoffDelayBounded(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	for attempt := 1; attempt <= 8; attempt++ {
		nominal := base << (attempt - 1)
		if nominal > max {
			nominal = max
		}
		for i := 0; i < 50; i++ {
			d := backoffDelay(base, max, attempt)
			if d < nominal/2 || d > nominal {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, nominal/2, nominal)
			}
		}
	}
}

// TestFanoutErrorEnvelope checks the partial-failure envelope: 502,
// upstream_failed, and per-sub-job detail.
func TestFanoutErrorEnvelope(t *testing.T) {
	fe := &FanoutError{Key: "fullkey", Subs: []SubError{{Key: "subkey", Error: "boom"}}}
	if errStatus(fe) != http.StatusBadGateway {
		t.Fatalf("errStatus = %d, want 502", errStatus(fe))
	}
	rec := httptest.NewRecorder()
	writeErrorKeyed(rec, errStatus(fe), "", fe)
	var env APIError
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != "upstream_failed" || env.Key != "fullkey" {
		t.Fatalf("envelope = %+v", env)
	}
	if len(env.Subs) != 1 || env.Subs[0].Key != "subkey" || env.Subs[0].Error != "boom" {
		t.Fatalf("envelope subs = %+v", env.Subs)
	}
}

// errNo is a tiny error constructor keeping handler closures readable.
func errNo(msg string) error { return errors.New(msg) }

// readBody drains and returns a response body.
func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
