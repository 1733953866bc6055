package experiment

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"mtmrp/internal/channel"
	"mtmrp/internal/experiment/sweep"
	"mtmrp/internal/rng"
	"mtmrp/internal/stats"
	"mtmrp/internal/topology"
)

// The paired-round Monte-Carlo engine. Every study of the evaluation is
// the same loop: over an axis, average rounds in which one topology and
// one receiver draw are shared by every row (protocol or ablation
// variant), so the rows differ only by what they are. Drivers declare a
// study; run alone owns the sweep engine, the round's topology and
// receiver draw, the pooled sessions, the fold and the summaries.

// EngineOptions are the execution knobs every sweep driver shares; they
// configure the sweep engine, not the experiment. The zero value runs on
// all cores, without cancellation, failing fast on the first error.
type EngineOptions struct {
	// Workers is the parallel worker count (0 = GOMAXPROCS). Results are
	// bit-identical for any value.
	Workers int
	// Ctx cancels the sweep early (SIGINT, timeout); completed rounds
	// still fold into the returned partial result.
	Ctx context.Context
	// Progress, when non-nil, observes runs completing (with an ETA).
	Progress sweep.ProgressFunc
	// WorkerState overrides the per-worker state constructor (default: a
	// fresh SessionPool per worker per sweep). Long-running callers — the
	// sweep service — supply pre-warmed pools from a bank so back-to-back
	// sweeps skip session construction entirely. Like everything in
	// sweep.Config.WorkerState, it may only carry performance caches:
	// results must be bit-identical with or without it.
	WorkerState func() any
}

// Table is the one result shape of every sweep driver: a summary per
// (row, axis point, metric). Rows are the compared protocols (legend
// names, in configured order) or the ablation variants; the axis is the
// study's x-axis in configured order.
type Table struct {
	Rows     []string            // row names
	AxisName string              // what the axis sweeps, e.g. "size"
	Axis     []string            // one tick label per axis point
	Metrics  []string            // metric names, index-aligned with Cells' innermost dimension
	Cells    [][][]stats.Summary // [row][axis point][metric]
	Stats    sweep.Stats         // what the engine actually ran
}

// Cell returns the summary of one (row, axis point, metric) cell, the row
// and metric named as in Rows and Metrics (a protocol row by its String,
// e.g. "MTMRP"; a metric as "overhead"). It panics on a name the table
// does not hold.
func (t *Table) Cell(row string, ai int, metric string) stats.Summary {
	r, m := slices.Index(t.Rows, row), slices.Index(t.Metrics, metric)
	if r < 0 || m < 0 {
		panic(fmt.Sprintf("experiment: table has no row %q or no metric %q", row, metric))
	}
	return t.Cells[r][ai][m]
}

// errAxis rejects a declaration whose axis holds an out-of-range point.
var errAxis = errors.New("experiment: axis point out of range")

// study declares one paired-round sweep. One engine job is one round at
// one axis point, covering every row; jobs are ordered run-major (round 0
// at every axis point, then round 1, ...), so a cancelled sweep leaves
// partial data in every cell.
type study struct {
	topo     TopoKind
	seed     uint64
	runs     int
	rows     []string // row names; also prefix a failing row's error
	axisName string
	axis     []string // tick labels, one per axis point
	metrics  []string // metric names, one per measured value
	// label names the round (axis point ai, run); the round's RNG derives
	// from it, so it is part of every result's identity.
	label func(ai, run int) string
	// group is the receiver count drawn at axis point ai.
	group func(ai int) int
	// check rejects an out-of-range axis point.
	check func(ai int) error
	// scenario returns the round's shared scenario edited for one row at
	// one axis point: the protocol (or variant) and the axis parameter.
	// It takes and returns the scenario by value so it stays on the stack.
	scenario func(sc Scenario, row, ai int, round *rng.RNG) Scenario
	// measure writes one run's metric vector into v.
	measure func(out *Outcome, ai int, v []float64)
}

// run executes the study. Every axis point is checked before any job
// starts. On cancellation the partial table is returned alongside the
// error; sweep.PartialOK distinguishes that from a failed run's abort,
// where the table is nil.
func (s *study) run(eng EngineOptions) (*Table, error) {
	for ai, tick := range s.axis {
		if g := s.group(ai); g < 1 {
			return nil, fmt.Errorf("%w: %s %s: group size %d", errAxis, s.axisName, tick, g)
		}
		if err := s.check(ai); err != nil {
			return nil, fmt.Errorf("%w: %s %s: %v", errAxis, s.axisName, tick, err)
		}
	}
	nx, nr, nm := len(s.axis), len(s.rows), len(s.metrics)
	label := func(i int) string { return s.label(i%nx, i/nx) }
	outs, st, err := sweep.Run(engineConfig(s.seed, eng), nx*s.runs, label,
		func(_ context.Context, job *sweep.Job) ([]float64, error) {
			ai := job.Index % nx
			round := job.RNG
			topo, links, err := buildRound(s.topo, round)
			if err != nil {
				return nil, err
			}
			rcv, err := topo.PickReceivers(0, s.group(ai), round.Derive("receivers"))
			if err != nil {
				return nil, err
			}
			seed := round.Derive("run").Uint64()
			scs := make([]Scenario, nr)
			for r := range scs {
				scs[r] = s.scenario(Scenario{Topo: topo, Source: 0, Receivers: rcv, Seed: seed, Links: links}, r, ai, round)
			}
			rr, ok := job.State.(roundRunner)
			if !ok {
				rr = NewSessionPool()
			}
			values := make([]float64, nr*nm)
			events, err := rr.RunRound(scs, func(r int, out *Outcome) error {
				s.measure(out, ai, values[r*nm:(r+1)*nm])
				return nil
			})
			if re := (*RowError)(nil); errors.As(err, &re) {
				return nil, fmt.Errorf("%s: %w", s.rows[re.Row], re.Err)
			}
			if err != nil {
				return nil, err
			}
			job.AddEvents(events)
			return values, nil
		})
	if err != nil && !sweep.PartialOK(err) {
		return nil, err
	}

	// Fold in job order: Welford accumulation is order-sensitive, and
	// index order is the one order every worker count agrees on. Under
	// run-major ordering each cell still sees its rounds in ascending run
	// order.
	acc := make([]stats.Accumulator, nr*nx*nm)
	for i, o := range outs {
		if o.Err != nil {
			continue
		}
		ai := i % nx
		for r := 0; r < nr; r++ {
			for m := 0; m < nm; m++ {
				acc[(r*nx+ai)*nm+m].Add(o.Value[r*nm+m])
			}
		}
	}
	t := &Table{
		Rows: s.rows, AxisName: s.axisName, Axis: s.axis,
		Metrics: slices.Clone(s.metrics), Cells: make([][][]stats.Summary, nr), Stats: st,
	}
	for r := range t.Cells {
		t.Cells[r] = make([][]stats.Summary, nx)
		for ai := range t.Cells[r] {
			cell := make([]stats.Summary, nm)
			for m := range cell {
				cell[m] = acc[(r*nx+ai)*nm+m].Summary()
			}
			t.Cells[r][ai] = cell
		}
	}
	return t, err
}

// protocolRows names the rows of a protocol comparison.
func protocolRows(protos []Protocol) []string {
	out := make([]string, len(protos))
	for i, p := range protos {
		out[i] = p.String()
	}
	return out
}

// ticks formats axis values as tick labels.
func ticks[T any](format string, vals []T) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}

// require is an axis check: nil when ok, an error carrying msg otherwise.
func require(ok bool, msg string) error {
	if ok {
		return nil
	}
	return errors.New(msg)
}

// fixedGroup is the receiver count of a study that does not sweep it.
func fixedGroup(n int) func(int) int { return func(int) int { return n } }

// engineConfig assembles the engine configuration for a study. Every
// study gets a per-worker SessionPool, so the runs of a sweep reuse
// simulator/channel/protocol state instead of rebuilding it per round.
func engineConfig(seed uint64, opts EngineOptions) sweep.Config {
	ws := opts.WorkerState
	if ws == nil {
		ws = func() any { return NewSessionPool() }
	}
	return sweep.Config{
		Seed:        seed,
		Workers:     opts.Workers,
		Context:     opts.Ctx,
		Progress:    opts.Progress,
		WorkerState: ws,
	}
}

// roundRunner runs the rows of one paired round (SessionPool.RunRound).
// The engine's worker state provides it; tests wrap a pool to inspect
// every round.
type roundRunner interface {
	RunRound(scs []Scenario, each func(row int, out *Outcome) error) (uint64, error)
}

// sharedGrid caches the one deterministic paper grid and its link table.
// Both are immutable, so every round of every grid sweep — across all
// worker goroutines — can share a single instance instead of rebuilding
// topology adjacency and channel links per round.
var sharedGrid struct {
	once  sync.Once
	topo  *topology.Topology
	links *channel.LinkTable
}

// buildRound materialises the topology and link table for one Monte-Carlo
// round. The grid variant returns the shared singletons and consumes no
// randomness (exactly like buildTopo); the random variant redraws the
// topology from the round stream and builds its table once, so the
// rows of a paired round share it.
func buildRound(kind TopoKind, round *rng.RNG) (*topology.Topology, *channel.LinkTable, error) {
	if kind == GridTopo {
		sharedGrid.once.Do(func() {
			sharedGrid.topo = topology.PaperGrid()
			sharedGrid.links = LinkTableFor(sharedGrid.topo)
		})
		return sharedGrid.topo, sharedGrid.links, nil
	}
	topo, err := buildTopo(kind, round)
	if err != nil {
		return nil, nil, err
	}
	return topo, LinkTableFor(topo), nil
}
