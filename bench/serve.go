package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mtmrp/internal/experiment"
	"mtmrp/internal/rng"
	"mtmrp/internal/service"
)

// serveConfig sizes the serve-mix workload's spec pools and caches; the
// tests shrink them.
type serveConfig struct {
	Hot, Cold int // specs served from the LRU, specs served from the store
	Cache     int // the instances' LRU capacity (mtmrd -cache)
}

// serveMix: 90% of requests hit 32 hot specs, 5% read one of 192 cold specs
// from the store, 5% are fresh specs that fan out. The LRU holds 64
// entries: the hot set stays cached while the cold and fresh traffic churns
// through the remaining slots.
var serveMix = serveConfig{Hot: 32, Cold: 192, Cache: 64}

const (
	// openRate is the open loop's request rate: 200 req/s keeps a 2-core
	// host well below saturation, so latency measures service time.
	openRate   = 200
	storeShare = 0.05 // share of open-loop requests for cold specs
	missShare  = 0.05 // share of open-loop requests for fresh specs
	openShare  = 0.75 // share of the run spent in the open loop; the closed loop gets the rest
	// recheckEvery: every recheckEvery-th fresh spec is recomputed in
	// process after the run and its bytes compared with the served ones.
	recheckEvery = 10
)

// Request classes, by what the fleet should serve them from.
const (
	classHit = iota
	classStore
	classMiss
)

var classNames = [...]string{"hit", "store_hit", "miss"}

// fleetBoots is how many times a run boots the fleet; setup_s is the
// median and the last boot serves the run.
const fleetBoots = 9

// serveSpecs generates the hot and cold spec pools. Hot specs cycle
// through the three sweep kinds with axes of every length, so payload
// sizes vary from a few to about thirty kilobytes; cold specs are one-cell
// group-size sweeps. Every spec is one run per axis point, cheap to
// precompute. The shapes depend only on the index and the seeds on the
// workload seed, so every run serves the same mix of payload sizes.
func serveSpecs(seed uint64, cfg serveConfig) (hot, cold []experiment.SweepSpec) {
	r := rng.New(derive(seed, 1))
	sizes := experiment.PaperSizes()
	fracs := []float64{0, 0.05, 0.1, 0.2, 0.3}
	speeds := []float64{0, 5, 10, 20}
	protos := []string{"mtmrp", "mtmrp-nophs", "dodmrp", "odmrp"}
	for i := 0; i < cfg.Hot; i++ {
		var s experiment.SweepSpec
		k := i / 3
		switch i % 3 {
		case 0:
			s = experiment.SweepSpec{Topo: "grid", Sizes: sizes[:1+k%len(sizes)]}
		case 1:
			s = experiment.SweepSpec{Kind: "fault", Topo: "grid", FailFractions: fracs[:1+k%len(fracs)], Packets: 4}
		default:
			s = experiment.SweepSpec{Kind: "mobility", Topo: "grid", Speeds: speeds[:1+k%len(speeds)],
				PausesMs: []float64{0, 500}[:1+k/len(speeds)%2], Packets: 4}
		}
		s.Runs, s.Seed = 1, r.Uint64()
		hot = append(hot, s)
	}
	for i := 0; i < cfg.Cold; i++ {
		cold = append(cold, experiment.SweepSpec{
			Topo: "grid", Sizes: []int{sizes[i%len(sizes)]}, Runs: 1,
			Protocols: protos[i%len(protos) : i%len(protos)+1], Seed: r.Uint64(),
		})
	}
	return hot, cold
}

// missSpec is the i-th fresh spec: never computed before the run, so it
// fans out to both shards (one sub-sweep per size) and is composed.
func missSpec(seed uint64, i int) experiment.SweepSpec {
	return experiment.SweepSpec{Topo: "grid", Sizes: []int{10, 20}, Runs: 2, Seed: derive(seed, uint64(1<<32+i))}
}

// request is one scheduled open-loop request.
type request struct {
	due   time.Duration // offset from the start of the open loop
	class int
	spec  int // index into the class's spec list (the miss number for misses)
}

// openSchedule lays out the open loop: requests evenly spaced at the
// configured rate, classes drawn from the seed. Cold specs are visited in
// a seeded permutation, so none repeats before all have been requested and
// each is evicted from the LRU by the time it comes round again.
func openSchedule(seed uint64, cfg serveConfig, d time.Duration) []request {
	r := rng.New(derive(seed, 2))
	perm := r.Perm(cfg.Cold)
	n := int(openRate * d.Seconds())
	reqs := make([]request, n)
	cold, miss := 0, 0
	for i := range reqs {
		rq := request{due: time.Duration(float64(i) / openRate * float64(time.Second))}
		switch u := r.Float64(); {
		case u < missShare:
			rq.class, rq.spec = classMiss, miss
			miss++
		case u < missShare+storeShare:
			rq.class, rq.spec = classStore, perm[cold%cfg.Cold]
			cold++
		default:
			rq.class, rq.spec = classHit, r.Intn(cfg.Hot)
		}
		reqs[i] = rq
	}
	return reqs
}

// target is what one request sends and what its response must carry.
type target struct {
	body []byte // the spec as JSON
	key  string // the spec's content address
	want []byte // the exact payload expected (nil for fresh specs)
}

func newTarget(s experiment.SweepSpec, want []byte) (target, error) {
	body, err := json.Marshal(s)
	if err != nil {
		return target{}, err
	}
	key, err := s.Key()
	return target{body: body, key: key, want: want}, err
}

// post submits one spec and checks the response: status 200, the key the
// spec hashes to, and the expected bytes when they are known. It returns
// the class the response headers say the request was served from. The
// body is read into buf, which callers reuse, so that the generator's own
// allocation and collection take less of the CPU the fleet shares with it
// (the closed loop served about 10% more hits per second than with a fresh
// buffer per response).
func post(ctx context.Context, c *http.Client, base string, t target, buf *bytes.Buffer) (served string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweep", bytes.NewReader(t.body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	switch {
	case err != nil:
		return "", err
	case resp.StatusCode != http.StatusOK:
		return "", fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	case resp.Header.Get("X-Mtmrd-Key") != t.key:
		return "", fmt.Errorf("key %.16s…, want %.16s…", resp.Header.Get("X-Mtmrd-Key"), t.key)
	case t.want != nil && !bytes.Equal(buf.Bytes(), t.want):
		return "", fmt.Errorf("key %.16s…: payload differs from the precomputed bytes", t.key)
	}
	switch {
	case resp.Header.Get("X-Mtmrd-Source") == "store":
		return classNames[classStore], nil
	case resp.Header.Get("X-Mtmrd-Cache") == "hit":
		return classNames[classHit], nil
	}
	return classNames[classMiss], nil
}

// bodies recycles response buffers across the open loop's requests.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// sample is one open-loop request's outcome.
type sample struct {
	served  string        // class from the response headers ("" on error)
	latency time.Duration // completion minus due time
	late    time.Duration // send time minus due time: the generator's own error
	body    []byte        // kept for fresh specs, which are rechecked
	err     error
}

// spinWindow is how early the generator stops sleeping and spins on the
// clock. Go's timers wake with millisecond granularity, and on a busy
// 2-vCPU guest a wake-up can come a few milliseconds late: sleeping to
// due-300 µs left a p99 lateness of 3-4 ms, sleeping to due-2 ms kept it
// under 1 ms in most runs, at the price of spinning 2 ms of every 5 ms gap.
const spinWindow = 2 * time.Millisecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// openLoop sends every request at its due time, regardless of how many are
// still outstanding, and times each from when it was due, so a stall is
// charged to every request it delays. The clients' connection limits bound
// concurrency; a request beyond them waits for a connection, and that wait
// is part of its latency. backlog is the most requests outstanding when
// one was sent.
func openLoop(ctx context.Context, clientOf func(request) *http.Client, base string, reqs []request, start time.Time, targetOf func(request) target) (samples []sample, backlog int) {
	samples = make([]sample, len(reqs))
	var wg sync.WaitGroup
	var inflight atomic.Int64
	for i, rq := range reqs {
		if ctx.Err() != nil {
			samples[i].err = ctx.Err()
			continue
		}
		due := start.Add(rq.due)
		waitUntil(due)
		late := time.Since(due)
		backlog = max(backlog, int(inflight.Load()))
		inflight.Add(1)
		wg.Add(1)
		go func(i int, rq request) {
			defer wg.Done()
			defer inflight.Add(-1)
			buf := bodies.Get().(*bytes.Buffer)
			defer bodies.Put(buf)
			served, err := post(ctx, clientOf(rq), base, targetOf(rq), buf)
			s := sample{served: served, latency: time.Since(due), late: late, err: err}
			if rq.class == classMiss {
				s.body = bytes.Clone(buf.Bytes())
			}
			samples[i] = s
		}(i, rq)
	}
	wg.Wait()
	return samples, backlog
}

// closedLoop keeps conns requests for random hot targets outstanding until
// d has passed: every connection sends its next request when the previous
// answer arrives. It returns how many completed within d and every failure.
func closedLoop(ctx context.Context, c *http.Client, base string, targets []target, conns int, d time.Duration, seed uint64) (done int, errs []error) {
	end := time.Now().Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(r *rng.RNG) {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				t := targets[r.Intn(len(targets))]
				_, err := post(ctx, c, base, t, &buf)
				if time.Now().After(end) {
					return
				}
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					done++
				}
				mu.Unlock()
			}
		}(rng.New(derive(seed, uint64(100+w))))
	}
	wg.Wait()
	return done, errs
}

// closedBurst is how long the closed loop runs between two readings of the
// HTTP reference; each burst gives one throughput sample.
const closedBurst = 500 * time.Millisecond

// newClient returns a keep-alive client with at most conns connections to
// any instance.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
}

// runServe measures serve-mix: precompute the hot and cold specs into the
// coordinator's store, boot the fleet (set-up), pull the hot specs into
// the LRU, run the open loop, run the closed hits-only loop, read every
// instance's counters, stop the fleet and recompute a sample of the fresh
// specs in process to check their bytes. The boots are rescaled to the
// reference host speed by the compute reference, the closed loop's
// throughput by the HTTP reference, which ref starts (refclock.go). The
// open loop's latencies stay in wall time: it cannot pause for readings,
// and rescaling them by the readings around the boots, or by requests to
// an idle reference server sent alongside the open loop, left their
// median as noisy over ten runs or noisier (README.md, The reference host
// speed).
func runServe(ctx context.Context, rc runConfig, cfg serveConfig, boot bootFunc, ref refServerFunc) (*report, error) {
	rep := &report{}
	hot, cold := serveSpecs(rc.Seed, cfg)
	coordStore := filepath.Join(rc.Dir, "coordinator.store")
	hotT, coldT, err := prepare(ctx, coordStore, hot, cold, rc.Workers)
	if err != nil {
		return nil, fmt.Errorf("precomputing specs: %w", err)
	}

	clock := newComputeClock(rc.Workers)
	var boots, rawBoots []float64
	var fl fleet
	for i := 0; i < fleetBoots; i++ {
		t := time.Now()
		f, err := boot(ctx, rc.Dir, coordStore, cfg.Cache)
		if err != nil {
			return nil, fmt.Errorf("booting the fleet: %w", err)
		}
		d := time.Since(t).Seconds()
		if i < fleetBoots-1 {
			if err := f.stop(); err != nil {
				return nil, err
			}
		} else {
			fl = f
		}
		rawBoots, boots = append(rawBoots, d), append(boots, d*clock.factor())
	}
	defer fl.stop() // error paths; the success path stops and checks below

	// The connections are split by class, as independent users would hold
	// their own: a cache hit never queues on a connection behind a fresh
	// spec that takes tens of milliseconds to compose.
	missConns := max(1, rc.Workers/2)
	client, missClient := newClient(max(1, rc.Workers-missConns)), newClient(missConns)
	defer client.CloseIdleConnections()
	defer missClient.CloseIdleConnections()
	clientOf := func(rq request) *http.Client {
		if rq.class == classMiss {
			return missClient
		}
		return client
	}
	base := fl.urls()[0]
	var buf bytes.Buffer
	for _, t := range hotT {
		rep.attempted++
		if _, err := post(ctx, client, base, t, &buf); err != nil {
			rep.fail("warming hot spec: %v", err)
		}
	}

	openDur := time.Duration(float64(rc.Seconds) * openShare)
	reqs := openSchedule(rc.Seed, cfg, openDur)
	missT := map[int]target{}
	for _, rq := range reqs {
		if rq.class == classMiss {
			t, err := newTarget(missSpec(rc.Seed, rq.spec), nil)
			if err != nil {
				return nil, err
			}
			missT[rq.spec] = t
		}
	}
	targetOf := func(rq request) target {
		switch rq.class {
		case classHit:
			return hotT[rq.spec]
		case classStore:
			return coldT[rq.spec]
		}
		return missT[rq.spec]
	}
	samples, backlog := openLoop(ctx, clientOf, base, reqs, time.Now().Add(10*time.Millisecond), targetOf)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	client.CloseIdleConnections()
	missClient.CloseIdleConnections()

	refBase, stopRef, err := ref(ctx, rc.Dir)
	if err != nil {
		return nil, fmt.Errorf("starting the reference server: %w", err)
	}
	defer stopRef()
	closed, refClient := newClient(rc.Workers), newClient(rc.Workers)
	defer closed.CloseIdleConnections()
	defer refClient.CloseIdleConnections()
	var refErr error
	httpClock := newHTTPClock(refClient, refBase, rc.Workers, &refErr)
	var rates, rawRates []float64
	var cerrs []error
	completed := 0
	for end := time.Now().Add(rc.Seconds - openDur); time.Now().Before(end); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n, errs := closedLoop(ctx, closed, base, hotT, rc.Workers, closedBurst, derive(rc.Seed, uint64(len(rates))))
		completed += n
		cerrs = append(cerrs, errs...)
		raw := float64(n) / closedBurst.Seconds()
		rawRates, rates = append(rawRates, raw), append(rates, raw/httpClock.factor())
	}
	if refErr != nil {
		return nil, fmt.Errorf("reference server: %w", refErr)
	}
	stats, err := fleetStats(ctx, closed, fl.urls())
	if err != nil {
		return nil, err
	}
	if err := fl.stop(); err != nil {
		return nil, err
	}

	if err := stopRef(); err != nil {
		return nil, err
	}

	// Outcomes of the open loop, by the class the fleet served them from.
	var all, lateMs []float64
	byClass := map[string][]float64{}
	for i, s := range samples {
		rep.attempted++
		lateMs = append(lateMs, float64(s.late)/float64(time.Millisecond))
		if s.err != nil {
			rep.fail("%s request %d: %v", classNames[reqs[i].class], i, s.err)
			continue
		}
		ms := float64(s.latency) / float64(time.Millisecond)
		all = append(all, ms)
		byClass[s.served] = append(byClass[s.served], ms)
	}
	rep.attempted += completed + len(cerrs)
	for _, err := range cerrs {
		rep.fail("closed loop: %v", err)
	}
	if err := recheckMisses(ctx, rep, reqs, samples, rc); err != nil {
		return nil, err
	}

	rep.addMedian("setup_s", "s", boots)
	rep.addMedian("throughput_per_s", "1/s", rates)
	if len(all) == 0 {
		return nil, fmt.Errorf("every open-loop request failed: %v", rep.failures)
	}
	rep.addMedian("latency_p50_ms", "ms", all)
	rep.add("peak_rss_mib", "MiB", fl.peakRSSMiB(), nil)
	rep.addMedian("setup_raw_s", "s", rawBoots)
	rep.addMedian("throughput_raw_per_s", "1/s", rawRates)
	clock.report(rep)
	httpClock.report(rep)
	addTail(rep, "latency", all)
	for _, c := range classNames {
		v := byClass[c]
		rep.addPercentile(c+"_p50_ms", "ms", 50, v)
		rep.addPercentile(fmt.Sprintf("%s_p%g_ms", c, classTail[c]), "ms", classTail[c], v)
		rep.add(c+"_samples", "count", float64(len(v)), nil)
	}
	rep.addPercentile("loadgen.late_p99_ms", "ms", 99, lateMs)
	rep.add("loadgen.backlog_max", "count", float64(backlog), nil)
	if late := percentile(sortedCopy(lateMs), 99); late > maxLateMs {
		rep.invalid = fmt.Sprintf("load generator p99 lateness %.3f ms exceeds %g ms", late, maxLateMs)
	}
	addFleetCounters(rep, stats)
	rep.add("error_rate", "ratio", float64(rep.failed)/float64(rep.attempted), nil)
	return rep, nil
}

// classTail is the percentile each class's tail is reported at: the one
// the tail rule (tailPercentile) picks at a 25 s run's sample counts, about
// 3400 hits and about 190 each of store hits and fresh specs. It stays
// fixed so runs of any length compare; a run too short for it reports null.
var classTail = map[string]float64{"hit": 99, "store_hit": 90, "miss": 90}

// addTail records the tail of a latency set at the highest percentile that
// keeps ten samples beyond it.
func addTail(rep *report, class string, ms []float64) {
	if p := tailPercentile(len(ms)); p > 50 {
		rep.add(fmt.Sprintf("%s_p%g_ms", class, p), "ms", percentile(sortedCopy(ms), p), nil)
	}
}

// maxLateMs invalidates a run whose generator sent its p99 request later
// than this: its latencies would measure the generator, not the fleet.
const maxLateMs = 1.0

// prepare computes the hot and cold specs in process into the store the
// coordinator will open, and returns their request targets with the
// payload bytes every response must match. This is benchmark preparation,
// outside set-up time.
func prepare(ctx context.Context, storePath string, hot, cold []experiment.SweepSpec, workers int) (hotT, coldT []target, err error) {
	svc, err := service.New(service.Config{StorePath: storePath, SweepWorkers: 1, CacheEntries: 1})
	if err != nil {
		return nil, nil, err
	}
	specs := append(append([]experiment.SweepSpec(nil), hot...), cold...)
	targets := make([]target, len(specs))
	errs := make([]error, len(specs))
	next := atomic.Int64{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(specs) && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				res, err := svc.Sweep(specs[i])
				if err == nil {
					targets[i], err = newTarget(specs[i], res.Payload)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	if err := svc.Close(); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return targets[:len(hot)], targets[len(hot):], nil
}

// recheckMisses recomputes every recheckEvery-th fresh spec in a fresh
// in-process service and compares its bytes with the ones the fleet
// composed.
func recheckMisses(ctx context.Context, rep *report, reqs []request, samples []sample, rc runConfig) error {
	svc, err := service.New(service.Config{SweepWorkers: rc.Workers})
	if err != nil {
		return err
	}
	defer svc.Close()
	for i, rq := range reqs {
		if rq.class != classMiss || rq.spec%recheckEvery != 0 || samples[i].err != nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		rep.attempted++
		res, err := svc.Sweep(missSpec(rc.Seed, rq.spec))
		switch {
		case err != nil:
			rep.fail("recomputing fresh spec %d: %v", rq.spec, err)
		case !bytes.Equal(res.Payload, samples[i].body):
			rep.fail("fresh spec %d: composed payload differs from an in-process recompute", rq.spec)
		}
	}
	return nil
}

// fleetStats reads /v1/stats from every instance, coordinator first.
func fleetStats(ctx context.Context, c *http.Client, urls []string) ([]service.Stats, error) {
	out := make([]service.Stats, len(urls))
	for i, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/v1/stats", nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return nil, fmt.Errorf("reading %s/v1/stats: %w", u, err)
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decoding %s/v1/stats: %w", u, err)
		}
	}
	return out, nil
}

// addFleetCounters records the serving counters: the coordinator's LRU and
// fan-out counters, and computations summed over the fleet.
func addFleetCounters(rep *report, stats []service.Stats) {
	co := stats[0]
	if lookups := co.CacheHits + co.CacheMisses; lookups > 0 {
		rep.add("service.cache_hit_ratio", "ratio", float64(co.CacheHits)/float64(lookups), nil)
	}
	rep.add("service.evictions", "count", float64(co.CacheEvictions), nil)
	var computes, coalesced uint64
	for _, s := range stats {
		computes += s.Computes
		coalesced += s.Coalesced
	}
	rep.add("service.computes", "count", float64(computes), nil)
	rep.add("service.coalesced", "count", float64(coalesced), nil)
	if fo := co.Fanout; fo != nil {
		rep.add("fanout.sub_jobs", "count", float64(fo.SubJobs), nil)
		rep.add("fanout.retries", "count", float64(fo.Retries), nil)
		rep.add("fanout.hedges", "count", float64(fo.Hedges), nil)
		rep.add("fanout.local_fallbacks", "count", float64(fo.LocalFallbacks), nil)
	}
}
