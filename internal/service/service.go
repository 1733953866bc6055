package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"

	"mtmrp/internal/experiment"
	"mtmrp/internal/metrics"
)

// Serving errors.
var (
	// ErrDraining reports a compute refused because the service is
	// shutting down (cached results are still served during drain).
	ErrDraining = errors.New("service: draining, not accepting new computations")
	// ErrNotOwned reports a key outside this instance's shard; the
	// response names the owning shard so the caller can re-route.
	ErrNotOwned = errors.New("service: key owned by another shard")
	// ErrBadKey reports a malformed result key: keys are the lowercase hex
	// of a SHA-256, nothing else reaches the store lookup.
	ErrBadKey = errors.New("service: malformed key (want 64 lowercase hex digits)")
)

// ValidKey reports whether key is a well-formed content address. Keys the
// service mints are always the 64-digit lowercase hex of a SHA-256; the
// HTTP layer rejects anything else before the store lookup, so a typo'd
// key reads as 400 bad_key, not as 404 "not computed yet".
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Config parameterises a Service. The zero value is a single-shard,
// memory-only service with small defaults.
type Config struct {
	// StorePath is the append-only result store file ("" = memory-only:
	// results live only in the LRU).
	StorePath string
	// CacheEntries caps the in-memory LRU (default 256 entries).
	CacheEntries int
	// MaxJobs bounds concurrently executing computations; further misses
	// queue on the semaphore (default 2 — sweeps are internally parallel,
	// so a few concurrent sweeps already saturate the machine).
	MaxJobs int
	// SweepWorkers is the sweep engine's worker count per computation
	// (default GOMAXPROCS). Results are bit-identical for any value.
	SweepWorkers int
	// WarmPools pre-builds that many session pools at startup, each warmed
	// with the Figure-5 session shapes (default 0: pools are built warm on
	// first use instead).
	WarmPools int
	// Shard is this instance's key-range ownership (zero = own all keys).
	Shard Shard
	// Hooks expose internal serving events to tests.
	Hooks Hooks
}

// Hooks are test seams; all fields are optional.
type Hooks struct {
	// ComputeStarted fires on the singleflight leader after it holds a
	// job slot, before the computation runs. The collapse tests park the
	// leader here until every duplicate submission has attached.
	ComputeStarted func(key string)
}

// Service is the content-addressed sweep service behind cmd/mtmrd: specs
// in, canonical keys out, results from cache, store, or a deduplicated
// computation on pre-warmed session pools — in that order.
type Service struct {
	cfg     Config
	store   *Store // nil when memory-only
	cache   *lruCache
	flights flightGroup
	jobs    jobTable
	bank    PoolBank
	sem     chan struct{}

	draining  atomic.Bool
	computes  atomic.Uint64 // computations actually executed
	coalesced atomic.Uint64 // submissions that shared another's execution
}

// New builds a Service: opens (and recovers) the store, sizes the LRU and
// the job semaphore, and pre-warms the pool bank.
func New(cfg Config) (*Service, error) {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 2
	}
	if cfg.SweepWorkers <= 0 {
		cfg.SweepWorkers = runtime.GOMAXPROCS(0)
	}
	s := &Service{
		cfg:   cfg,
		cache: newLRU(cfg.CacheEntries),
		sem:   make(chan struct{}, cfg.MaxJobs),
	}
	if cfg.StorePath != "" {
		st, err := OpenStore(cfg.StorePath)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	if cfg.WarmPools > 0 {
		if err := s.bank.Prewarm(cfg.WarmPools); err != nil {
			s.closeStore()
			return nil, err
		}
	}
	return s, nil
}

// Result is one served response: the payload bytes plus where they came
// from. Source is "cache", "store" or "computed"; Hit reports whether the
// request was served without computing; Shared reports a submission that
// coalesced onto another caller's in-flight computation.
type Result struct {
	Key     string
	Source  string
	Hit     bool
	Shared  bool
	Payload []byte
}

// Sweep serves a group-size sweep spec.
func (s *Service) Sweep(spec experiment.SweepSpec) (Result, error) {
	key, err := spec.Key()
	if err != nil {
		return Result{}, err
	}
	return s.serve(key, func() ([]byte, error) { return s.computeSweep(key, spec) })
}

// Run serves a single-session run spec.
func (s *Service) Run(spec experiment.RunSpec) (Result, error) {
	key, err := spec.Key()
	if err != nil {
		return Result{}, err
	}
	return s.serve(key, func() ([]byte, error) { return s.computeRun(key, spec) })
}

// Lookup serves key from cache or store only — never computes. Returns
// ErrNotFound when absent (a corrupt store record also reads as absent:
// the payload is gone either way until someone resubmits the spec).
func (s *Service) Lookup(key string) (Result, error) {
	if p, ok := s.cache.Get(key); ok {
		return Result{Key: key, Source: "cache", Hit: true, Payload: p}, nil
	}
	if s.store != nil {
		p, err := s.store.Get(key)
		if err == nil {
			s.cache.Add(key, p)
			return Result{Key: key, Source: "store", Hit: true, Payload: p}, nil
		}
	}
	return Result{Key: key}, ErrNotFound
}

// serve is the cache → store → singleflight-compute path every request
// takes. compute must return the deterministic payload for key.
func (s *Service) serve(key string, compute func() ([]byte, error)) (Result, error) {
	if !s.cfg.Shard.Owns(key) {
		return Result{Key: key}, ErrNotOwned
	}
	if res, err := s.Lookup(key); err == nil {
		return res, nil
	}
	if s.draining.Load() {
		return Result{Key: key}, ErrDraining
	}
	payload, shared, err := s.flights.Do(key, func() ([]byte, error) {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
		if h := s.cfg.Hooks.ComputeStarted; h != nil {
			h(key)
		}
		// A waiter queued behind an identical earlier flight may land here
		// after that flight stored its result; re-check before computing.
		if p, ok := s.cache.Get(key); ok {
			return p, nil
		}
		s.computes.Add(1)
		p, err := compute()
		if err != nil {
			return nil, err
		}
		if s.store != nil {
			if err := s.store.Append(key, p); err != nil {
				return nil, fmt.Errorf("service: storing result: %w", err)
			}
		}
		s.cache.Add(key, p)
		return p, nil
	})
	if err != nil {
		return Result{Key: key}, err
	}
	if shared {
		s.coalesced.Add(1)
	}
	return Result{Key: key, Source: "computed", Shared: shared, Payload: payload}, nil
}

// SweepPayload is the stored/served result of a sweep spec (any kind). It
// carries only deterministic data — canonical spec, the kind's metric
// names and per-cell summaries, no wall-clock engine stats — so
// recomputation is byte-identical and a cached payload can be compared bit
// for bit against a fresh run.
type SweepPayload struct {
	Key     string               `json:"key"`
	Kind    string               `json:"kind"`
	Spec    experiment.SweepSpec `json:"spec"`
	Metrics []string             `json:"metrics"`
	Curves  []SweepCurve         `json:"curves"`
}

// SweepCurve is one protocol's summaries, Cells[axisIdx][metric] — the
// sweep-kind registry's shared cell layout, axis-major so the fan-out
// composer concatenates sub-sweep rows along the outer dimension.
type SweepCurve = experiment.SweepCells

// RunPayload is the stored/served result of a run spec.
type RunPayload struct {
	Key        string             `json:"key"`
	Kind       string             `json:"kind"`
	Spec       experiment.RunSpec `json:"spec"`
	Result     metrics.Result     `json:"result"`
	Robustness metrics.Robustness `json:"robustness"`
}

// computeSweep executes the sweep on bank-loaned worker pools through its
// kind's run hook, publishing progress to key's streaming subscribers, and
// marshals the payload once.
func (s *Service) computeSweep(key string, spec experiment.SweepSpec) ([]byte, error) {
	canon, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	metricNames, err := canon.Metrics()
	if err != nil {
		return nil, err
	}
	state, release := s.bank.WorkerState()
	defer release()
	curves, err := experiment.RunSweepFromSpec(canon, experiment.EngineOptions{
		Workers:     s.cfg.SweepWorkers,
		Progress:    s.jobs.progressFunc(key),
		WorkerState: state,
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(SweepPayload{
		Key: key, Kind: "sweep", Spec: canon, Metrics: metricNames, Curves: curves,
	})
}

// computeRun executes the session on a bank-loaned pool and marshals the
// payload once.
func (s *Service) computeRun(key string, spec experiment.RunSpec) ([]byte, error) {
	canon, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	pool := s.bank.loan()
	out, err := experiment.RunFromSpec(canon, pool)
	s.bank.put(pool)
	if err != nil {
		return nil, err
	}
	return json.Marshal(RunPayload{
		Key: key, Kind: "run", Spec: canon,
		Result: out.Result, Robustness: out.Robustness,
	})
}

// PutComposed stores an externally composed payload under key, exactly as
// if this instance had computed it: appended to the store (when one is
// open) and cached. The fan-out coordinator calls it with the composed
// full-sweep payload so a repeat submission of the full spec is a plain
// single-instance cache hit.
func (s *Service) PutComposed(key string, payload []byte) error {
	if s.store != nil {
		if err := s.store.Append(key, payload); err != nil {
			return fmt.Errorf("service: storing composed result: %w", err)
		}
	}
	s.cache.Add(key, payload)
	return nil
}

// Drain stops accepting new computations; cache and store hits (and
// already-running computations) still complete. Idempotent.
func (s *Service) Drain() { s.draining.Store(true) }

// Draining reports drain state.
func (s *Service) Draining() bool { return s.draining.Load() }

// Close releases the store. Call after the HTTP server has shut down.
func (s *Service) Close() error { return s.closeStore() }

func (s *Service) closeStore() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// Stats is the /v1/stats snapshot.
type Stats struct {
	Draining  bool   `json:"draining"`
	Computes  uint64 `json:"computes"`
	Coalesced uint64 `json:"coalesced"`

	CacheEntries   int    `json:"cache_entries"`
	CacheBytes     int64  `json:"cache_bytes"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`

	StoreKeys    int    `json:"store_keys"`
	StoreBytes   int64  `json:"store_bytes"`
	StoreAppends uint64 `json:"store_appends"`
	StoreCorrupt uint64 `json:"store_corrupt"`

	PoolsFree    int `json:"pools_free"`
	PoolsCreated int `json:"pools_created"`

	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`

	// Fanout carries the coordinator's per-peer circuit state and fan-out
	// counters; nil (omitted) on plain instances.
	Fanout *FanoutStats `json:"fanout,omitempty"`
}

// StatsSnapshot collects the current counters.
func (s *Service) StatsSnapshot() Stats {
	st := Stats{
		Draining:  s.draining.Load(),
		Computes:  s.computes.Load(),
		Coalesced: s.coalesced.Load(),
	}
	st.CacheEntries, st.CacheBytes, st.CacheHits, st.CacheMisses, st.CacheEvictions = s.cache.Stats()
	if s.store != nil {
		st.StoreKeys = s.store.Len()
		st.StoreBytes = s.store.Size()
		st.StoreAppends, st.StoreCorrupt = s.store.Stats()
	}
	st.PoolsFree, st.PoolsCreated = s.bank.Size()
	sh := s.cfg.Shard.normalized()
	st.ShardIndex, st.ShardCount = sh.Index, sh.Count
	return st
}

// --- HTTP layer ---

// Handler returns the service's HTTP API:
//
//	POST /v1/sweep        submit a SweepSpec (?stream=1 for NDJSON progress)
//	POST /v1/run          submit a RunSpec
//	POST /v1/sweep/split  partition a SweepSpec into shardable sub-jobs
//	GET  /v1/result/{key} fetch a result by key (never computes)
//	GET  /v1/stats        serving counters
//	GET  /healthz         200 serving / 503 draining
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep/split", s.handleSplit)
	mux.HandleFunc("GET /v1/result/{key}", s.handleResult)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// maxSpecBytes bounds a request body. The largest real spec is a few
// hundred bytes; the bound only stops one request from streaming an
// unbounded body into a shard.
const maxSpecBytes = 1 << 20

// errTrailingData rejects a body with anything but whitespace after the
// spec: serving the first of two JSON values would answer a request the
// caller did not make.
var errTrailingData = errors.New("service: trailing data after the JSON spec")

// decodeSpec strictly decodes a JSON request body, writing the error
// envelope and returning false on failure. Unknown fields are rejected: in
// a content-addressed API a typo'd knob would otherwise be silently
// ignored while the caller believes it changed the experiment. A body over
// maxSpecBytes is 413 too_large; any other rejection is 400 bad_spec.
func decodeSpec(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errTrailingData
		}
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, err)
	return false
}

// APIError is the structured error envelope every /v1/* endpoint writes:
// a human-readable message, a stable machine code, the key when one was
// resolved, and per-sub-job detail on fan-out partial failures. Status
// codes are unchanged from the bare-text era; the envelope only replaces
// the body.
type APIError struct {
	Error string     `json:"error"`
	Code  string     `json:"code"`
	Key   string     `json:"key,omitempty"`
	Subs  []SubError `json:"subs,omitempty"`
}

// SubError is one failed sub-job inside a fan-out error envelope.
type SubError struct {
	Key   string `json:"key"`
	Error string `json:"error"`
}

// errCode maps a serving error to the envelope's stable code.
func errCode(status int, err error) string {
	switch {
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrNotOwned):
		return "not_owned"
	case errors.Is(err, ErrNotFound):
		return "not_found"
	case errors.Is(err, ErrBadKey):
		return "bad_key"
	case isFanoutErr(err):
		return "upstream_failed"
	case status == http.StatusBadRequest:
		return "bad_spec"
	case status == http.StatusRequestEntityTooLarge:
		return "too_large"
	}
	return "internal"
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeErrorKeyed(w, status, "", err)
}

// writeErrorKeyed writes the envelope with the resolved key (when known)
// and, for fan-out failures, the per-sub-job detail.
func writeErrorKeyed(w http.ResponseWriter, status int, key string, err error) {
	env := APIError{Error: err.Error(), Code: errCode(status, err), Key: key}
	var fe *FanoutError
	if errors.As(err, &fe) {
		env.Subs = fe.Subs
		if env.Key == "" {
			env.Key = fe.Key
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(env)
}

// errStatus maps a serving error to its HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotOwned):
		return http.StatusMisdirectedRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrBadKey):
		return http.StatusBadRequest
	case isFanoutErr(err):
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

func isFanoutErr(err error) bool {
	var fe *FanoutError
	return errors.As(err, &fe)
}

// writeResult writes a served payload with the cache headers the smoke
// tests (and operators) read: X-Mtmrd-Key, X-Mtmrd-Cache: hit|miss,
// X-Mtmrd-Source: cache|store|computed.
func (s *Service) writeResult(w http.ResponseWriter, res Result, err error) {
	if res.Key != "" {
		w.Header().Set("X-Mtmrd-Key", res.Key)
	}
	if err != nil {
		if errors.Is(err, ErrNotOwned) {
			w.Header().Set("X-Mtmrd-Owner", fmt.Sprint(s.cfg.Shard.Owner(res.Key)))
		}
		writeErrorKeyed(w, errStatus(err), res.Key, err)
		return
	}
	cache := "miss"
	if res.Hit {
		cache = "hit"
	}
	w.Header().Set("X-Mtmrd-Cache", cache)
	w.Header().Set("X-Mtmrd-Source", res.Source)
	w.Header().Set("Content-Type", "application/json")
	w.Write(res.Payload)
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	var spec experiment.SweepSpec
	if !decodeSpec(w, r, &spec) {
		return
	}
	if _, err := spec.Canonical(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if r.URL.Query().Get("stream") != "" {
		s.streamSweep(w, spec)
		return
	}
	res, err := s.Sweep(spec)
	if err != nil && !isSpecErr(err) {
		s.writeResult(w, res, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.writeResult(w, res, nil)
}

// streamLine is one NDJSON line of a streamed submission: progress events
// while the sweep runs, then a single result (or error) line.
type streamLine struct {
	Type     string          `json:"type"` // "progress" | "result" | "error"
	Progress *ProgressEvent  `json:"progress,omitempty"`
	Key      string          `json:"key,omitempty"`
	Cache    string          `json:"cache,omitempty"`
	Source   string          `json:"source,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// streamSweep serves a sweep as NDJSON: subscribe to the key's progress
// feed, kick the serve off, and interleave progress lines until the result
// lands. A hit simply streams its result line immediately.
func (s *Service) streamSweep(w http.ResponseWriter, spec experiment.SweepSpec) {
	key, err := spec.Key()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	events, cancel := s.jobs.subscribe(key)
	defer cancel()

	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.Sweep(spec)
		done <- outcome{res, err}
	}()

	w.Header().Set("X-Mtmrd-Key", key)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	for {
		select {
		case ev := <-events:
			enc.Encode(streamLine{Type: "progress", Progress: &ev})
			flush()
		case out := <-done:
			if out.err != nil {
				enc.Encode(streamLine{Type: "error", Key: key, Error: out.err.Error()})
			} else {
				cache := "miss"
				if out.res.Hit {
					cache = "hit"
				}
				enc.Encode(streamLine{
					Type: "result", Key: key, Cache: cache,
					Source: out.res.Source, Result: out.res.Payload,
				})
			}
			flush()
			return
		}
	}
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	var spec experiment.RunSpec
	if !decodeSpec(w, r, &spec) {
		return
	}
	res, err := s.Run(spec)
	if err != nil && isSpecErr(err) {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.writeResult(w, res, err)
}

// splitItem is one shardable sub-job of a partitioned sweep.
type splitItem struct {
	Key   string               `json:"key"`
	Owner int                  `json:"owner"`
	Spec  experiment.SweepSpec `json:"spec"`
}

func (s *Service) handleSplit(w http.ResponseWriter, r *http.Request) {
	var spec experiment.SweepSpec
	if !decodeSpec(w, r, &spec) {
		return
	}
	subs, err := spec.Split()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	items := make([]splitItem, len(subs))
	for i, sub := range subs {
		key, err := sub.Key()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		items[i] = splitItem{Key: key, Owner: s.cfg.Shard.Owner(key), Spec: sub}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"jobs": items, "shards": s.cfg.Shard.normalized().Count})
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !ValidKey(key) {
		writeErrorKeyed(w, http.StatusBadRequest, key, ErrBadKey)
		return
	}
	res, err := s.Lookup(key)
	s.writeResult(w, res, err)
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.StatsSnapshot())
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	w.Write([]byte("ok\n"))
}

// isSpecErr reports whether err is a client-side spec problem (400) rather
// than a serving failure.
func isSpecErr(err error) bool {
	return errors.Is(err, experiment.ErrSpecTopo) ||
		errors.Is(err, experiment.ErrSpecProtocol) ||
		errors.Is(err, experiment.ErrSpecSizes) ||
		errors.Is(err, experiment.ErrSpecNodes) ||
		errors.Is(err, experiment.ErrSpecKind) ||
		errors.Is(err, experiment.ErrSpecKindField) ||
		errors.Is(err, experiment.ErrSpecFractions) ||
		errors.Is(err, experiment.ErrSpecSpeeds) ||
		errors.Is(err, experiment.ErrSpecTiming) ||
		errors.Is(err, experiment.ErrSpecModel) ||
		errors.Is(err, experiment.ErrSpecBackoff) ||
		errors.Is(err, experiment.ErrMobilityUnpaced) ||
		errors.Is(err, experiment.ErrMobilitySpeed)
}
