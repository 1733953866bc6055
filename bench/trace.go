package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mtmrp/internal/channel"
	"mtmrp/internal/experiment"
	"mtmrp/internal/experiment/sweep"
	"mtmrp/internal/geom"
	"mtmrp/internal/neighbor"
	"mtmrp/internal/packet"
	"mtmrp/internal/rng"
	"mtmrp/internal/service"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

// The traced run. Spans are recorded by the benchmark around its own calls
// into each layer's public functions (tracing inside the program is left
// for later), kept in memory and written as JSON lines when the run ends.
// End-to-end metrics never come from a traced run.

// span is one timed call. Spans nest: a session's phases are children of
// the session span, and every span is a descendant of the run's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	Req    int    `json:"req"` // the replayed session or served spec; -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. The traced replay is serial, so it needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, req int) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Req: req, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	n := len(t.open) - 1
	t.spans[t.open[n]].End = int64(time.Since(t.t0))
	t.open = t.open[:n]
}

// do runs fn inside a span.
func (t *tracer) do(name string, req int, fn func()) {
	t.begin(name, req)
	fn()
	t.end()
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// residual is the share of the root span's time that no child span
// covers: 1 - (sum of every span's self time, root excluded) / root time.
// Benchmark bookkeeping runs in bench.* spans, so what remains is time
// the outside view does not attribute to any layer.
func (t *tracer) residual() float64 {
	root := t.spans[0].dur()
	var children time.Duration
	for _, s := range t.spans[1:] {
		if s.Parent == 0 {
			children += s.dur()
		}
	}
	return float64(root-children) / float64(root)
}

func (t *tracer) flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceInputs is what one workload's traced run replays.
type traceInputs struct {
	sessions []experiment.RunSpec   // through the phased Session API
	sweeps   []experiment.SweepSpec // served in process
	runs     []experiment.RunSpec   // served in process
	// tail is timed through the sweep engine for sweep.tail_s; nil takes
	// the replayed sessions themselves as the jobs of a one-worker sweep.
	tail *experiment.SweepSpec
}

// traceRuns is the run count of the sweep specs served in the traced
// replay: their payloads have the full shape at a fraction of the compute.
const traceRuns = 2

func traceSweeps(ctx context.Context, rc runConfig, specs func(seed uint64) []experiment.SweepSpec) (*report, error) {
	var in traceInputs
	for _, spec := range specs(derive(rc.Seed, 0)) {
		c, err := spec.Canonical()
		if err != nil {
			return nil, err
		}
		subs, err := c.Split()
		if err != nil {
			return nil, err
		}
		for _, sub := range subs {
			for _, p := range c.Protocols {
				in.sessions = append(in.sessions, runSpecOf(sub, p, derive(rc.Seed, uint64(len(in.sessions)))))
			}
		}
		if in.tail == nil {
			tail := c // one whole slice: every axis point, so job costs differ
			in.tail = &tail
		}
		c.Runs = traceRuns
		in.sweeps = append(in.sweeps, c)
	}
	return traceRun(ctx, rc, in)
}

func traceScale(ctx context.Context, rc runConfig, cfg scaleConfig) (*report, error) {
	return traceRun(ctx, rc, traceInputs{
		sessions: []experiment.RunSpec{scaleSpec(cfg, rc.Seed, 0), scaleSpec(cfg, rc.Seed, 1)},
		runs:     []experiment.RunSpec{scaleSpec(cfg, rc.Seed, 2)},
	})
}

// traceServe replays serve-mix in process: the sessions of a fresh spec,
// and a sample of every request class through the serving layers.
func traceServe(ctx context.Context, rc runConfig, cfg serveConfig) (*report, error) {
	hot, cold := serveSpecs(rc.Seed, cfg)
	fresh := missSpec(rc.Seed, 0)
	c, err := fresh.Canonical()
	if err != nil {
		return nil, err
	}
	subs, err := c.Split()
	if err != nil {
		return nil, err
	}
	var in traceInputs
	for _, sub := range subs {
		for _, p := range c.Protocols {
			in.sessions = append(in.sessions, runSpecOf(sub, p, derive(rc.Seed, uint64(len(in.sessions)))))
		}
	}
	const perClass = 3
	in.sweeps = append(in.sweeps, hot[:perClass]...)
	in.sweeps = append(in.sweeps, cold[:perClass]...)
	for i := 1; i <= perClass; i++ {
		in.sweeps = append(in.sweeps, missSpec(rc.Seed, i))
	}
	tail := missSpec(rc.Seed, perClass+1)
	in.tail = &tail
	return traceRun(ctx, rc, in)
}

// layerCounts accumulates the counters of the replayed sessions.
type layerCounts struct {
	sessions  int
	sums      map[string]float64 // per-session counters, summed
	events    uint64
	runWall   time.Duration
	maxDepth  int
	heap      [len(heapPhases)]uint64
	ends      []time.Duration // session completion times, from the first session's start
	lastTopo  *topology.Topology
	lastLinks *channel.LinkTable
}

var heapPhases = [...]string{"setup", "hello", "discovery", "data"}

// traceRun replays the inputs under the tracer and derives every
// per-layer metric.
func traceRun(ctx context.Context, rc runConfig, in traceInputs) (*report, error) {
	rep := &report{}
	tr := newTracer()
	lc := &layerCounts{sums: map[string]float64{}}
	svc, err := service.New(service.Config{StorePath: filepath.Join(rc.Dir, "replay.store"), SweepWorkers: rc.Workers})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	appendStore, err := service.OpenStore(filepath.Join(rc.Dir, "append.store"))
	if err != nil {
		return nil, err
	}
	defer appendStore.Close()

	tr.begin("trace", -1)
	start := time.Now()
	for i, rs := range in.sessions {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep.attempted++
		if err := replaySession(tr, i, rs, lc); err != nil {
			rep.fail("session %d: %v", i, err)
		}
		lc.ends = append(lc.ends, time.Since(start))
	}
	if lc.sessions == 0 {
		return nil, fmt.Errorf("every replayed session failed: %v", rep.failures)
	}
	sv := serveReplay{tr: tr, svc: svc, url: srv.URL, client: srv.Client(), dir: rc.Dir, appendStore: appendStore, rep: rep}
	for i, s := range in.sweeps {
		sv.serve(ctx, len(in.sessions)+i, sweepOps(svc, s))
	}
	for i, s := range in.runs {
		sv.serve(ctx, len(in.sessions)+len(in.sweeps)+i, runOps(svc, s))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var tail float64
	if in.tail != nil {
		rep.attempted++
		tail, err = sweepTail(tr, *in.tail, rc.Workers)
		if err != nil {
			rep.fail("tail sweep: %v", err)
		}
	} else {
		tail = tailOf(lc.ends, lc.ends[len(lc.ends)-1], 1)
	}
	calibrate(tr, lc)
	tr.end()

	// A layer's time is the median of its spans, named after the span.
	for _, p := range []struct{ span, unit string }{
		{"topology.build", "ms"}, {"channel.linktable_build", "ms"}, {"experiment.new_session", "ms"},
		{"experiment.reset", "us"}, {"network.hello", "ms"}, {"proto.discovery", "ms"}, {"proto.data", "ms"},
		{"metrics.snapshot", "us"}, {"http.decode", "us"}, {"experiment.canonical", "us"}, {"experiment.key", "us"},
		{"service.compute", "ms"}, {"service.marshal", "us"}, {"service.store_append", "us"},
		{"service.store_get", "us"}, {"service.lookup", "us"}, {"service.hit", "us"}, {"service.compose", "us"},
	} {
		if ds := tr.durations(p.span); len(ds) > 0 {
			rep.addMedian(p.span+"_"+p.unit, p.unit, inUnit(ds, p.unit))
		}
	}
	httpHit := inUnit(tr.durations("http.post_hit"), "us")
	svcHit := inUnit(tr.durations("service.hit"), "us")
	if len(httpHit) > 0 && len(svcHit) > 0 {
		rep.add("http.overhead_us", "us", median(sortedCopy(httpHit))-median(sortedCopy(svcHit)), nil)
	}
	for _, c := range []struct{ span, name, unit string }{
		{"calibrate.hold", "sim.hold_ns", "ns"},
		{"calibrate.transmit", "channel.transmit_us", "us"},
		{"calibrate.move", "channel.move_us", "us"},
	} {
		v := inUnit(tr.durations(c.span), c.unit)
		for i := range v {
			v[i] /= calibrationOps
		}
		rep.addMedian(c.name, c.unit, v)
	}
	n := float64(lc.sessions)
	rep.add("sim.events", "count", float64(lc.events)/n, nil)
	rep.add("sim.events_per_s", "1/s", float64(lc.events)/lc.runWall.Seconds(), nil)
	rep.add("sim.max_pending", "count", float64(lc.maxDepth), nil)
	for _, k := range []string{"channel.tx", "channel.rx", "channel.collisions", "channel.halfduplex", "channel.drops",
		"proto.control_tx", "proto.data_tx", "proto.tx_hello", "proto.tx_joinquery", "proto.tx_joinreply", "neighbor.entries_mean"} {
		rep.add(k, "count", lc.sums[k]/n, nil)
	}
	tx, rx := lc.sums["channel.tx"], lc.sums["channel.rx"]
	lost := lc.sums["channel.collisions"] + lc.sums["channel.halfduplex"] + lc.sums["channel.drops"]
	rep.add("channel.rx_per_tx", "ratio", rx/tx, nil)
	rep.add("channel.useful_ratio", "ratio", rx/(rx+lost), nil)
	for i, ph := range heapPhases {
		rep.add("heap.live_mib_"+ph, "MiB", float64(lc.heap[i])/(1<<20), nil)
	}
	rep.add("sweep.tail_s", "s", tail, nil)
	rep.add("trace.residual_frac", "ratio", tr.residual(), nil)
	rep.add("replayed_sessions", "count", n, nil)

	path := filepath.Join(rc.Dir, "spans.jsonl")
	if err := tr.flush(path); err != nil {
		return nil, err
	}
	rep.traceFile = path
	return rep, nil
}

// replaySession builds and runs one session phase by phase under spans,
// then rewinds it with Reset (the cost a pooled sweep worker pays per
// run), and folds its counters into lc.
func replaySession(tr *tracer, req int, rs experiment.RunSpec, lc *layerCounts) error {
	var sc experiment.Scenario
	var err error
	tr.do("topology.build", req, func() { sc, err = rs.Scenario() })
	if err != nil {
		return err
	}
	if rs.Mobility.Model == "" {
		tr.do("channel.linktable_build", req, func() { sc.Links = experiment.LinkTableFor(sc.Topo) })
	}
	var s *experiment.Session
	tr.do("experiment.new_session", req, func() { s, err = experiment.NewSession(sc) })
	if err != nil {
		return err
	}
	lc.probeHeap(tr, req, 0)
	tr.do("network.hello", req, s.RunHello)
	lc.probeHeap(tr, req, 1)
	tr.do("proto.discovery", req, func() { s.RunDiscovery(0) })
	lc.probeHeap(tr, req, 2)
	tr.do("proto.data", req, func() { _, err = s.RunData(0) })
	if err != nil {
		return err
	}
	lc.probeHeap(tr, req, 3)
	var res struct {
		tx         [packet.NumTypes]uint64
		ctrl, data uint64
	}
	tr.do("metrics.snapshot", req, func() {
		m := s.Metrics()
		s.Robustness()
		res.tx, res.ctrl, res.data = m.TxByType, m.ControlTx, m.DataTxTotal
	})
	tr.do("bench.counters", req, func() {
		st := s.Stats()
		cs := s.Network().Chan.Stats()
		lc.sessions++
		lc.events += st.Processed
		lc.runWall += st.RunWall
		lc.maxDepth = max(lc.maxDepth, st.MaxPending)
		add := func(k string, v float64) { lc.sums[k] += v }
		add("channel.tx", float64(cs.Transmissions))
		add("channel.rx", float64(cs.Deliveries))
		add("channel.collisions", float64(cs.Collisions))
		add("channel.halfduplex", float64(cs.HalfDuplex))
		add("channel.drops", float64(cs.LossDrops+cs.DegradeDrops))
		add("proto.control_tx", float64(res.ctrl))
		add("proto.data_tx", float64(res.data))
		add("proto.tx_hello", float64(res.tx[packet.THello]))
		add("proto.tx_joinquery", float64(res.tx[packet.TJoinQuery]))
		add("proto.tx_joinreply", float64(res.tx[packet.TJoinReply]))
		entries, tables := 0, 0
		for _, r := range s.Routers() {
			if nt, ok := r.(interface{ NeighborTable() *neighbor.Table }); ok {
				entries += nt.NeighborTable().Len()
				tables++
			}
		}
		if tables > 0 {
			add("neighbor.entries_mean", float64(entries)/float64(tables))
		}
		lc.lastTopo, lc.lastLinks = sc.Topo, sc.Links
		if lc.lastLinks == nil {
			lc.lastLinks = experiment.LinkTableFor(sc.Topo)
		}
	})
	tr.do("experiment.reset", req, func() { err = s.Reset(sc) })
	return err
}

// probeHeap records the live heap at a phase boundary, in a bench span so
// the forced collection is not charged to any layer.
func (lc *layerCounts) probeHeap(tr *tracer, req, phase int) {
	tr.do("bench.heap", req, func() { lc.heap[phase] = max(lc.heap[phase], liveHeap()) })
}

// specOps is one spec's serving path, for sweep and run specs alike.
type specOps struct {
	path      string // HTTP endpoint
	body      []byte
	decode    func() error // strict decode of body, as the HTTP layer does it
	canonical func() error
	key       func() (string, error)
	serve     func() (service.Result, error)
	reencode  func(payload []byte) ([]byte, error) // decode the payload and marshal it again
	// composer, for sweeps, computes the sub-sweeps and returns the
	// fan-out composition of their payloads.
	composer func() (func() ([]byte, error), error)
}

func sweepOps(svc *service.Service, s experiment.SweepSpec) specOps {
	body, _ := json.Marshal(s) // a SweepSpec always marshals
	return specOps{
		path: "/v1/sweep", body: body,
		decode:    func() error { var v experiment.SweepSpec; return strictDecode(body, &v) },
		canonical: func() error { _, err := s.Canonical(); return err },
		key:       s.Key,
		serve:     func() (service.Result, error) { return svc.Sweep(s) },
		reencode: func(p []byte) ([]byte, error) {
			var v service.SweepPayload
			if err := json.Unmarshal(p, &v); err != nil {
				return nil, err
			}
			return json.Marshal(v)
		},
		composer: func() (func() ([]byte, error), error) {
			c, err := s.Canonical()
			if err != nil {
				return nil, err
			}
			key, err := s.Key()
			if err != nil {
				return nil, err
			}
			subs, err := c.Split()
			if err != nil {
				return nil, err
			}
			payloads := make([][]byte, len(subs))
			for i, sub := range subs {
				r, err := svc.Sweep(sub)
				if err != nil {
					return nil, err
				}
				payloads[i] = r.Payload
			}
			return func() ([]byte, error) { return service.ComposeSweep(key, c, payloads) }, nil
		},
	}
}

func runOps(svc *service.Service, s experiment.RunSpec) specOps {
	body, _ := json.Marshal(s) // a RunSpec always marshals
	return specOps{
		path: "/v1/run", body: body,
		decode:    func() error { var v experiment.RunSpec; return strictDecode(body, &v) },
		canonical: func() error { _, err := s.Canonical(); return err },
		key:       s.Key,
		serve:     func() (service.Result, error) { return svc.Run(s) },
		reencode: func(p []byte) ([]byte, error) {
			var v service.RunPayload
			if err := json.Unmarshal(p, &v); err != nil {
				return nil, err
			}
			return json.Marshal(v)
		},
	}
}

func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// serveReplay times one spec through every serving layer in process.
type serveReplay struct {
	tr          *tracer
	svc         *service.Service
	url         string
	client      *http.Client
	dir         string
	appendStore *service.Store
	rep         *report
}

// serveReps is how many times each cheap serving call is repeated.
const serveReps = 64

// serve runs the decode, canonicalise and hash steps, the compute (a
// miss), the payload re-marshal, a store append, for sweeps the fan-out
// composition of the sub-sweep payloads, a store read (on a copy of the
// service's store), LRU lookups, in-process hits and hits over HTTP,
// checking every result along the way.
func (sv *serveReplay) serve(ctx context.Context, req int, ops specOps) {
	rep, tr := sv.rep, sv.tr
	rep.attempted++
	fail := func(step string, err error) { rep.fail("served spec %d: %s: %v", req, step, err) }
	var err error
	repeat := func(span string, fn func() error) bool {
		for i := 0; i < serveReps && err == nil; i++ {
			tr.do(span, req, func() { err = fn() })
		}
		if err != nil {
			fail(span, err)
		}
		return err == nil
	}
	var key string
	if !repeat("http.decode", ops.decode) || !repeat("experiment.canonical", ops.canonical) ||
		!repeat("experiment.key", func() (e error) { key, e = ops.key(); return e }) {
		return
	}
	var res service.Result
	tr.do("service.compute", req, func() { res, err = ops.serve() })
	if err != nil {
		fail("compute", err)
		return
	}
	payload := res.Payload
	same := func(what string, got []byte) error {
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("%s differs from the computed payload", what)
		}
		return nil
	}
	n := 0
	ok := repeat("service.marshal", func() error {
		b, e := ops.reencode(payload)
		if e != nil {
			return e
		}
		return same("re-marshalled payload", b)
	}) && repeat("service.store_append", func() error {
		n++
		return sv.appendStore.Append(syntheticKey(req, n), payload)
	})
	if !ok {
		return
	}
	if ops.composer != nil {
		var compose func() ([]byte, error)
		tr.do("bench.sub_compute", req, func() { compose, err = ops.composer() })
		if err != nil {
			fail("computing sub-sweeps", err)
			return
		}
		if !repeat("service.compose", func() error {
			b, e := compose()
			if e != nil {
				return e
			}
			return same("composed payload", b)
		}) {
			return
		}
	}
	st, err := copyStore(sv.dir, "replay.store")
	if err != nil {
		fail("copying the store", err)
		return
	}
	defer st.Close()
	_ = repeat("service.store_get", func() error {
		b, e := st.Get(key)
		if e != nil {
			return e
		}
		return same("stored payload", b)
	}) && repeat("service.lookup", func() error {
		r, e := sv.svc.Lookup(key)
		if e != nil {
			return e
		}
		return same("looked-up payload", r.Payload)
	}) && repeat("service.hit", func() error {
		r, e := ops.serve()
		if e == nil && !r.Hit {
			e = fmt.Errorf("repeat submission was not a hit (source %q)", r.Source)
		}
		return e
	}) && repeat("http.post_hit", func() error {
		got, e := sv.postHit(ctx, ops, key)
		if e != nil {
			return e
		}
		return same("HTTP payload", got)
	})
}

// postHit submits the spec over HTTP and checks the key header.
func (sv *serveReplay) postHit(ctx context.Context, ops specOps, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sv.url+ops.path, bytes.NewReader(ops.body))
	if err != nil {
		return nil, err
	}
	resp, err := sv.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return nil, err
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	case resp.Header.Get("X-Mtmrd-Key") != key:
		return nil, fmt.Errorf("key header %q", resp.Header.Get("X-Mtmrd-Key"))
	}
	return b, nil
}

// copyStore opens a copy of the store file name in dir.
func copyStore(dir, name string) (*service.Store, error) {
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, name+".copy")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	return service.OpenStore(path)
}

// syntheticKey is a distinct well-formed key per appended record.
func syntheticKey(req, n int) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("bench-append-%d-%d", req, n)))
	return hex.EncodeToString(h[:])
}

// sweepTail runs spec through the sweep engine and returns its tail: the
// wall time after job total-workers completed, when workers start to idle.
func sweepTail(tr *tracer, spec experiment.SweepSpec, workers int) (float64, error) {
	var ends []time.Duration
	var err error
	start := time.Now()
	tr.do("sweep.run", -1, func() {
		_, err = experiment.RunSweepFromSpec(spec, experiment.EngineOptions{
			Workers:  workers,
			Progress: func(p sweep.Progress) { ends = append(ends, p.Elapsed) },
		})
	})
	if err != nil {
		return 0, err
	}
	return tailOf(ends, time.Since(start), workers), nil
}

// tailOf is wall minus the completion time of job total-workers (in
// completion order), or the whole wall when there are no more jobs than
// workers.
func tailOf(ends []time.Duration, wall time.Duration, workers int) float64 {
	sorted := append([]time.Duration(nil), ends...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if k := len(sorted) - workers; k > 0 {
		return (wall - sorted[k-1]).Seconds()
	}
	return wall.Seconds()
}

// calibrationOps is the operation count of one calibration batch.
const calibrationOps = 4096

// calibrate times the scheduler, channel and dynamic link table in
// isolation at the replay's own scale: the event queue held at the deepest
// depth the replayed sessions reached, frame transmissions and node moves
// on the last replayed deployment.
func calibrate(tr *tracer, lc *layerCounts) {
	const batches = 5
	s := sim.New()
	r := rng.New(7)
	next := func() sim.Time { return sim.Time(r.Intn(1000)) }
	var fire sim.Callback
	fire = func(any, int) { s.AfterCall(next(), fire, nil, 0) }
	for j := 0; j < max(lc.maxDepth, 1); j++ {
		s.AfterCall(next(), fire, nil, 0)
	}
	for b := 0; b < batches; b++ {
		tr.do("calibrate.hold", -1, func() {
			for i := 0; i < calibrationOps; i++ {
				s.Step()
			}
		})
	}

	n := lc.lastTopo.N()
	cs := sim.New()
	ch := channel.NewWithTable(cs, lc.lastLinks, channel.Config{})
	p := packet.NewHello(0, nil)
	node := 0
	for b := 0; b < batches; b++ {
		tr.do("calibrate.transmit", -1, func() {
			for i := 0; i < calibrationOps; i++ {
				node = (node + 7919) % n
				ch.Transmit(node, p)
				cs.Run()
			}
		})
	}

	dyn := channel.NewDynamicLinkTable(append([]geom.Point(nil), lc.lastTopo.Positions...), lc.lastLinks.Params())
	side := lc.lastTopo.Side
	for b := 0; b < batches; b++ {
		tr.do("calibrate.move", -1, func() {
			for i := 0; i < calibrationOps; i++ {
				dyn.Move(r.Intn(n), geom.Point{X: r.Float64() * side, Y: r.Float64() * side})
			}
		})
	}
}
