package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mtmrp/internal/experiment"
)

// The fan-out coordinator: a front-end that accepts a full SweepSpec,
// splits it into per-axis-point sub-sweeps, routes each sub-job to the
// peer owning its key range, executes them concurrently with per-request
// timeouts, bounded exponential backoff with jitter and a retry budget,
// then composes the cells deterministically and caches the composed
// payload under the full sweep's key — so a repeat submission is a plain
// single-instance cache hit.
//
// Failure handling is graceful by construction: when every route to a
// sub-job's owner is exhausted (dead process, open circuit, drained peer),
// the coordinator recomputes that range locally — logged and counted in
// /v1/stats — rather than failing the sweep. Determinism makes this safe:
// a sub-sweep payload is a pure function of its canonical spec, so bytes
// computed locally are identical to the bytes the dead owner would have
// served, and the composed payload stays byte-identical to a
// single-instance full run.

// FanoutError reports a fan-out whose sub-jobs could not all be completed
// (remote routes exhausted and the local fallback failed too). It carries
// per-sub detail for the HTTP error envelope.
type FanoutError struct {
	Key  string
	Subs []SubError
}

// Error implements error.
func (e *FanoutError) Error() string {
	if len(e.Subs) == 0 {
		return "fanout: sweep failed"
	}
	return fmt.Sprintf("fanout: %d sub-sweep(s) failed (first: %s)", len(e.Subs), e.Subs[0].Error)
}

// FanoutConfig parameterises a Fanout coordinator. Zero fields take the
// defaults noted on each.
type FanoutConfig struct {
	// Peers are the peer instances' base URLs, in shard order: peer i must
	// be (or proxy for) the instance serving shard i of len(Peers). The
	// coordinator routes each sub-job to Owner(subKey) and follows
	// X-Mtmrd-Owner redirects, so a misconfigured order still converges —
	// it just pays one redirect.
	Peers []string
	// Timeout bounds each HTTP attempt (default 10 min: a full-size
	// sub-sweep is minutes of compute; the retry loop, not the transport,
	// is the liveness mechanism).
	Timeout time.Duration
	// Retries is the per-sub-job retry budget after the first attempt
	// (default 2). Retryable failures are network errors, 5xx and 503
	// draining; 4xx spec rejections are permanent.
	Retries int
	// BackoffBase and BackoffMax bound the exponential backoff between
	// retries (defaults 100 ms and 5 s); each delay is jittered to half
	// its nominal value plus a uniform draw of the other half.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// CircuitThreshold consecutive transport failures open a peer's
	// circuit (default 3); while open, requests fail fast to the local
	// fallback instead of queueing on a dead host.
	CircuitThreshold int
	// CircuitCooldown is how long an open circuit sheds load before
	// admitting a half-open probe attempt (default 10 s).
	CircuitCooldown time.Duration
	// Client overrides the HTTP client (tests; default http.DefaultClient
	// semantics with no client-level timeout — per-attempt contexts bound
	// each request).
	Client *http.Client
	// Logf sinks operational log lines (default log.Printf).
	Logf func(format string, v ...any)
}

// peerState is one peer's routing state: health, circuit breaker and
// counters. All fields are guarded by mu.
type peerState struct {
	url string

	mu          sync.Mutex
	healthy     bool
	consecFails int
	openUntil   time.Time
	requests    uint64
	failures    uint64
	retries     uint64
}

// admit reports whether a request may be sent: true while the circuit is
// closed, false while it is open and cooling down. The first caller after
// the cooldown is admitted as the half-open probe; the window is pushed
// forward so concurrent requests stay shed until the probe reports back.
func (p *peerState) admit(threshold int, cooldown time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.consecFails < threshold {
		return true
	}
	now := time.Now()
	if now.Before(p.openUntil) {
		return false
	}
	p.openUntil = now.Add(cooldown)
	return true
}

// ok records a successful contact: circuit closed, peer healthy.
func (p *peerState) ok() {
	p.mu.Lock()
	p.healthy = true
	p.consecFails = 0
	p.openUntil = time.Time{}
	p.mu.Unlock()
}

// fail records a transport failure, opening the circuit at the threshold.
func (p *peerState) fail(threshold int, cooldown time.Duration) {
	p.mu.Lock()
	p.healthy = false
	p.failures++
	p.consecFails++
	if p.consecFails >= threshold {
		p.openUntil = time.Now().Add(cooldown)
	}
	p.mu.Unlock()
}

func (p *peerState) addRequest() { p.mu.Lock(); p.requests++; p.mu.Unlock() }
func (p *peerState) addRetry()   { p.mu.Lock(); p.retries++; p.mu.Unlock() }

// Fanout is the coordinator. It wraps an unsharded local Service that
// provides the composed-result cache/store and the local-recompute
// fallback, and fans sub-jobs out to the configured peers.
type Fanout struct {
	cfg     FanoutConfig
	svc     *Service
	client  *http.Client
	peers   []*peerState
	flights flightGroup

	sweeps         atomic.Uint64 // full sweeps fanned out
	composed       atomic.Uint64 // composed payloads cached
	subJobs        atomic.Uint64 // sub-jobs dispatched
	retries        atomic.Uint64 // retry attempts across all sub-jobs
	localFallbacks atomic.Uint64 // sub-ranges recomputed locally
}

// NewFanout builds a coordinator over svc. svc must own the whole key
// space (the coordinator caches composed full-sweep payloads and
// recomputes arbitrary sub-ranges locally, neither of which tolerates a
// shard filter).
func NewFanout(svc *Service, cfg FanoutConfig) (*Fanout, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("fanout: at least one peer required")
	}
	if sh := svc.cfg.Shard.normalized(); sh.Count != 1 {
		return nil, fmt.Errorf("fanout: local service must be unsharded (got shard %d/%d)", sh.Index, sh.Count)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Minute
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.CircuitThreshold <= 0 {
		cfg.CircuitThreshold = 3
	}
	if cfg.CircuitCooldown <= 0 {
		cfg.CircuitCooldown = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	f := &Fanout{cfg: cfg, svc: svc, client: cfg.Client}
	if f.client == nil {
		f.client = &http.Client{}
	}
	for _, raw := range cfg.Peers {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("fanout: bad peer URL %q", raw)
		}
		f.peers = append(f.peers, &peerState{url: strings.TrimRight(raw, "/"), healthy: true})
	}
	return f, nil
}

// Sweep serves a full sweep spec: composed-cache lookup, then fan-out.
// Concurrent submissions of the same key coalesce on the coordinator's
// own singleflight group, exactly like the single-instance serve path.
func (f *Fanout) Sweep(spec experiment.SweepSpec) (Result, error) {
	key, err := spec.Key()
	if err != nil {
		return Result{}, err
	}
	if res, err := f.svc.Lookup(key); err == nil {
		return res, nil
	}
	if f.svc.Draining() {
		return Result{Key: key}, ErrDraining
	}
	canon, err := spec.Canonical()
	if err != nil {
		return Result{Key: key}, err
	}
	payload, shared, err := f.flights.Do(key, func() ([]byte, error) {
		// A waiter queued behind an identical earlier flight may land here
		// after that flight cached its composition; re-check first.
		if res, err := f.svc.Lookup(key); err == nil {
			return res.Payload, nil
		}
		return f.compose(key, canon)
	})
	if err != nil {
		return Result{Key: key}, err
	}
	return Result{Key: key, Source: "composed", Shared: shared, Payload: payload}, nil
}

// compose fans the sub-sweeps out, waits for all of them, and assembles
// and caches the full payload.
func (f *Fanout) compose(key string, canon experiment.SweepSpec) ([]byte, error) {
	f.sweeps.Add(1)
	subs, err := canon.Split()
	if err != nil {
		return nil, err
	}
	outs := make([]subResult, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = f.runSub(subs[i])
		}(i)
	}
	wg.Wait()

	var fails []SubError
	payloads := make([][]byte, len(outs))
	for i, o := range outs {
		if o.err != nil {
			fails = append(fails, SubError{Key: o.key, Error: o.err.Error()})
			continue
		}
		payloads[i] = o.payload
	}
	if len(fails) > 0 {
		return nil, &FanoutError{Key: key, Subs: fails}
	}
	composed, err := ComposeSweep(key, canon, payloads)
	if err != nil {
		return nil, err
	}
	if err := f.svc.PutComposed(key, composed); err != nil {
		return nil, err
	}
	f.composed.Add(1)
	return composed, nil
}

// subResult is one sub-job's outcome.
type subResult struct {
	key     string
	payload []byte
	err     error
}

// runSub executes one sub-sweep: route to its owner (with retries and
// redirects), and fall back to a local recompute when every remote route
// is exhausted. Determinism makes the fallback exact — the local bytes are
// the bytes the owner would have served.
func (f *Fanout) runSub(sub experiment.SweepSpec) subResult {
	f.subJobs.Add(1)
	subKey, err := sub.Key()
	if err != nil {
		return subResult{err: err}
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return subResult{key: subKey, err: err}
	}
	owner := Shard{Count: len(f.peers)}.Owner(subKey)
	payload, rerr := f.fetchFrom(owner, subKey, body)
	if rerr == nil {
		return subResult{key: subKey, payload: payload}
	}
	if isPermanent(rerr) {
		return subResult{key: subKey, err: rerr}
	}
	f.localFallbacks.Add(1)
	f.cfg.Logf("mtmrd fanout: sub-sweep %s: peers unavailable (%v); recomputing locally", subKey[:16], rerr)
	res, lerr := f.svc.Sweep(sub)
	if lerr != nil {
		return subResult{key: subKey, err: errors.Join(rerr, lerr)}
	}
	return subResult{key: subKey, payload: res.Payload}
}

// fetchFrom posts the sub-spec to a peer, following 421 ownership
// redirects, retrying transport failures under the backoff schedule, and
// failing fast on open circuits and permanent (spec-level) rejections.
func (f *Fanout) fetchFrom(start int, subKey string, body []byte) ([]byte, error) {
	peer := start
	redirects := 0
	var lastErr error
	for attempt := 0; attempt <= f.cfg.Retries; attempt++ {
		if attempt > 0 {
			f.retries.Add(1)
			f.peers[peer].addRetry()
			time.Sleep(backoffDelay(f.cfg.BackoffBase, f.cfg.BackoffMax, attempt))
		}
		for {
			p := f.peers[peer]
			if !p.admit(f.cfg.CircuitThreshold, f.cfg.CircuitCooldown) {
				return nil, fmt.Errorf("fanout: peer %s: circuit open", p.url)
			}
			payload, next, err := f.post(p, subKey, body)
			if err == nil && next < 0 {
				return payload, nil
			}
			if next >= 0 {
				// Ownership redirect: routing information, not a failure.
				if redirects++; redirects > len(f.peers) {
					return nil, fmt.Errorf("fanout: redirect loop routing sub-sweep %s", subKey[:16])
				}
				peer = next
				continue
			}
			lastErr = err
			if isPermanent(err) {
				return nil, err
			}
			break
		}
	}
	return nil, lastErr
}

// permanentError marks a peer response that retrying cannot fix (the peer
// understood the request and rejected it).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }

func isPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// backoffDelay is the jittered exponential backoff before retry attempt
// (attempt >= 1): nominal base<<(attempt-1) capped at max, jittered
// uniformly within [nominal/2, nominal].
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	nominal := base
	for i := 1; i < attempt && nominal < max; i++ {
		nominal *= 2
	}
	if nominal > max {
		nominal = max
	}
	half := nominal / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// post sends one sub-sweep request. Returns the payload on 200, the
// redirect target on 421, a permanent error on other 4xx (the peer is
// alive and rejected the spec) and a retryable error on transport
// failures and 5xx.
func (f *Fanout) post(p *peerState, subKey string, body []byte) (payload []byte, redirect int, err error) {
	p.addRequest()
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, -1, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		p.fail(f.cfg.CircuitThreshold, f.cfg.CircuitCooldown)
		return nil, -1, fmt.Errorf("fanout: peer %s: %w", p.url, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			p.fail(f.cfg.CircuitThreshold, f.cfg.CircuitCooldown)
			return nil, -1, fmt.Errorf("fanout: peer %s: reading payload: %w", p.url, err)
		}
		if got := resp.Header.Get("X-Mtmrd-Key"); got != subKey {
			// A key mismatch means the peer computed a different canonical
			// form — a version skew, not a transient fault.
			return nil, -1, &permanentError{fmt.Errorf("fanout: peer %s returned key %.16q…, want %.16q…", p.url, got, subKey)}
		}
		p.ok()
		return b, -1, nil
	case resp.StatusCode == http.StatusMisdirectedRequest:
		p.ok() // the peer answered; this is routing info
		idx, aerr := strconv.Atoi(resp.Header.Get("X-Mtmrd-Owner"))
		if aerr != nil || idx < 0 || idx >= len(f.peers) {
			return nil, -1, &permanentError{fmt.Errorf("fanout: peer %s: unusable owner redirect %q", p.url, resp.Header.Get("X-Mtmrd-Owner"))}
		}
		return nil, idx, nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests:
		p.ok() // alive; the request itself was rejected
		return nil, -1, &permanentError{respError(p, resp)}
	default:
		// 5xx (including 503 draining) and 429: retryable.
		p.fail(f.cfg.CircuitThreshold, f.cfg.CircuitCooldown)
		return nil, -1, respError(p, resp)
	}
}

// respError surfaces the peer's error envelope when one is readable.
func respError(p *peerState, resp *http.Response) error {
	var env APIError
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 8192))
	if json.Unmarshal(b, &env) == nil && env.Error != "" {
		return fmt.Errorf("fanout: peer %s: status %d: %s", p.url, resp.StatusCode, env.Error)
	}
	return fmt.Errorf("fanout: peer %s: status %d", p.url, resp.StatusCode)
}

// ComposeSweep assembles the full sweep payload from its sub-sweep
// payloads, in Split() order. Every sub-payload's cell matrix is
// axis-major, so composition is row concatenation per protocol; the
// composed struct is then marshalled once through the same encoder as a
// local computation. Go's JSON float encoding round-trips float64 exactly
// (shortest-representation), so unmarshalling sub-payload cells and
// re-marshalling them reproduces the single-instance bytes bit for bit —
// the property the bit-identity tests and the CI cmp pin.
func ComposeSweep(key string, canon experiment.SweepSpec, subs [][]byte) ([]byte, error) {
	metricNames, err := canon.Metrics()
	if err != nil {
		return nil, err
	}
	parsed := make([]SweepPayload, len(subs))
	for i, raw := range subs {
		if err := json.Unmarshal(raw, &parsed[i]); err != nil {
			return nil, fmt.Errorf("fanout: decoding sub-payload %d: %w", i, err)
		}
		if len(parsed[i].Curves) != len(canon.Protocols) {
			return nil, fmt.Errorf("fanout: sub-payload %d has %d curves, want %d", i, len(parsed[i].Curves), len(canon.Protocols))
		}
	}
	out := SweepPayload{Key: key, Kind: "sweep", Spec: canon, Metrics: metricNames}
	for pi, name := range canon.Protocols {
		curve := SweepCurve{Protocol: name}
		for i := range parsed {
			if parsed[i].Curves[pi].Protocol != name {
				return nil, fmt.Errorf("fanout: sub-payload %d curve %d is %q, want %q", i, pi, parsed[i].Curves[pi].Protocol, name)
			}
			curve.Cells = append(curve.Cells, parsed[i].Curves[pi].Cells...)
		}
		out.Curves = append(out.Curves, curve)
	}
	return json.Marshal(out)
}

// ProbePeers checks every peer's /healthz once, in parallel, updating
// health and circuit state: a live peer closes its circuit (the recovery
// path after a restart), a dead one accumulates failures toward opening
// it before any sweep traffic has to find out.
func (f *Fanout) ProbePeers() {
	timeout := 5 * time.Second
	if f.cfg.Timeout < timeout {
		timeout = f.cfg.Timeout
	}
	var wg sync.WaitGroup
	for _, p := range f.peers {
		wg.Add(1)
		go func(p *peerState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
			if err != nil {
				p.fail(f.cfg.CircuitThreshold, f.cfg.CircuitCooldown)
				return
			}
			resp, err := f.client.Do(req)
			if err != nil {
				p.fail(f.cfg.CircuitThreshold, f.cfg.CircuitCooldown)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.ok()
			} else {
				p.fail(f.cfg.CircuitThreshold, f.cfg.CircuitCooldown)
			}
		}(p)
	}
	wg.Wait()
}

// StartProbing probes all peers now and then every interval until the
// returned stop function is called.
func (f *Fanout) StartProbing(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			f.ProbePeers()
			select {
			case <-done:
				return
			case <-ticker.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// FanoutStats is the coordinator section of /v1/stats. Hedges is always
// 0: the coordinator fires no hedged duplicate requests. The field stays
// because /v1/stats readers report it (the bench module's serve-mix
// compiles against it as fanout.hedges).
type FanoutStats struct {
	Peers          []PeerStats `json:"peers"`
	Sweeps         uint64      `json:"sweeps"`
	Composed       uint64      `json:"composed"`
	SubJobs        uint64      `json:"sub_jobs"`
	Retries        uint64      `json:"retries"`
	Hedges         uint64      `json:"hedges"`
	LocalFallbacks uint64      `json:"local_fallbacks"`
}

// PeerStats is one peer's routing state snapshot.
type PeerStats struct {
	URL                 string `json:"url"`
	Healthy             bool   `json:"healthy"`
	CircuitOpen         bool   `json:"circuit_open"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Requests            uint64 `json:"requests"`
	Failures            uint64 `json:"failures"`
	Retries             uint64 `json:"retries"`
}

// StatsSnapshot collects the coordinator counters and per-peer state.
func (f *Fanout) StatsSnapshot() FanoutStats {
	st := FanoutStats{
		Sweeps:         f.sweeps.Load(),
		Composed:       f.composed.Load(),
		SubJobs:        f.subJobs.Load(),
		Retries:        f.retries.Load(),
		LocalFallbacks: f.localFallbacks.Load(),
	}
	for _, p := range f.peers {
		p.mu.Lock()
		st.Peers = append(st.Peers, PeerStats{
			URL:                 p.url,
			Healthy:             p.healthy,
			CircuitOpen:         p.consecFails >= f.cfg.CircuitThreshold,
			ConsecutiveFailures: p.consecFails,
			Requests:            p.requests,
			Failures:            p.failures,
			Retries:             p.retries,
		})
		p.mu.Unlock()
	}
	return st
}

// LocalFallbacks reports how many sub-ranges were recomputed locally.
func (f *Fanout) LocalFallbacks() uint64 { return f.localFallbacks.Load() }

// Handler returns the coordinator's HTTP API: POST /v1/sweep fans out and
// composes (streaming is not supported through the coordinator — the
// composed response is written whole), GET /v1/stats adds the fanout
// section, and every other endpoint — /v1/run, /v1/sweep/split,
// /v1/result/{key}, /healthz — is the local service's.
func (f *Fanout) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", f.svc.Handler())
	mux.HandleFunc("POST /v1/sweep", f.handleSweep)
	mux.HandleFunc("GET /v1/stats", f.handleStats)
	return mux
}

func (f *Fanout) handleSweep(w http.ResponseWriter, r *http.Request) {
	var spec experiment.SweepSpec
	if !decodeSpec(w, r, &spec) {
		return
	}
	res, err := f.Sweep(spec)
	if err != nil && isSpecErr(err) {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	f.svc.writeResult(w, res, err)
}

func (f *Fanout) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := f.svc.StatsSnapshot()
	fs := f.StatsSnapshot()
	st.Fanout = &fs
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
