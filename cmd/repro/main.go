// Command repro regenerates every figure of the paper's evaluation
// section from the reproduction:
//
//	repro -fig 1            Fig. 1  — SPT vs Steiner vs min-transmission tree
//	repro -fig 5            Fig. 5  — grid topology, group-size sweep (3 metrics)
//	repro -fig 6            Fig. 6  — random topology, group-size sweep
//	repro -fig 7            Fig. 7  — N x delta tuning surface, grid
//	repro -fig 8            Fig. 8  — N x delta tuning surface, random
//	repro -fig 9            Fig. 9  — grid snapshot, 20 receivers
//	repro -fig 10           Fig. 10 — random snapshot, 15 receivers
//	repro -fig faults       extension — PDR vs node-failure rate
//	repro -fig mobility     extension — PDR and control overhead vs node speed
//	repro -fig all          everything above (plus ablation/amortize/shadowing)
//
// -runs controls the Monte-Carlo rounds per point (paper: 100); lower it
// for a quick look. All sweeps run on the deterministic worker pool
// (-workers, default all cores): results are bit-identical for any worker
// count. Ctrl-C (or -timeout) stops a sweep early and still prints the
// rounds completed so far. Every sweep prints one table per metric — axis
// points down, protocols (or ablation variants) across, mean ± 95% CI —
// and -csv DIR also writes it to DIR/<study>.csv, one line per
// (axis point, row, metric) with the full summary.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mtmrp"
	"mtmrp/internal/prof"
)

// figure is one -fig target.
type figure struct {
	name string
	run  func() error
}

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to reproduce: 1, 5, 6, 7, 8, 9, 10, ablation, amortize, shadowing, faults, mobility, or all")
		runs    = flag.Int("runs", 100, "Monte-Carlo rounds per data point")
		seed    = flag.Uint64("seed", 2010, "base seed for the sweep")
		workers = flag.Int("workers", 0, "parallel workers (0 = all cores)")
		timeout = flag.Duration("timeout", 0, "abort after this long, keeping partial results (0 = none)")
		csvDir  = flag.String("csv", "", "also write each sweep's table as CSV into this directory")
		gmr     = flag.Bool("with-gmr", false, "add the geographic multicast baseline to Figures 5-6")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	// Profiles must flush on every exit path — the deferred stop covers
	// normal returns and the graceful SIGINT/timeout unwinding; the
	// explicit calls cover the os.Exit error paths, where defers don't run.
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
	defer stopProf()
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			stopProf()
			os.Exit(1)
		}
	}

	// Ctrl-C cancels the running sweep; partial tables are still printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	s := sweeps{ctx: ctx, workers: *workers, csvDir: *csvDir}
	r, sd := *runs, *seed
	protos := mtmrp.AllProtocols
	if *gmr {
		protos = append(append([]mtmrp.Protocol(nil), protos...), mtmrp.GMR)
	}
	group := func(figNo int, kind mtmrp.TopoKind) figure {
		return s.figure(fmt.Sprint(figNo), fmt.Sprintf("fig%d_%s", figNo, kind),
			fmt.Sprintf("Figure %d: %s topology, group-size sweep (%d runs/point)", figNo, kind, r),
			func(e mtmrp.EngineOptions) (*mtmrp.Table, error) {
				res, err := mtmrp.GroupSizeSweep(mtmrp.SweepConfig{Topo: kind, Runs: r, Seed: sd, Protocols: protos, Engine: e})
				return table(err, func() *mtmrp.Table { return &res.Table })
			})
	}
	tuning := func(figNo int, kind mtmrp.TopoKind, size int) figure {
		return s.figure(fmt.Sprint(figNo), fmt.Sprintf("fig%d_%s", figNo, kind),
			fmt.Sprintf("Figure %d: tuning N and delta, %s topology, %d receivers (%d runs/point)", figNo, kind, size, r),
			func(e mtmrp.EngineOptions) (*mtmrp.Table, error) {
				res, err := mtmrp.TuningSweep(mtmrp.TuningConfig{Topo: kind, GroupSize: size, Runs: r, Seed: sd, Engine: e})
				return table(err, func() *mtmrp.Table { return &res.Table })
			})
	}
	figs := []figure{
		{"1", fig1},
		group(5, mtmrp.GridTopo),
		group(6, mtmrp.RandomTopo),
		tuning(7, mtmrp.GridTopo, 20),
		tuning(8, mtmrp.RandomTopo, 15),
		{"9", func() error { return figSnapshot(mtmrp.GridTopo, 20, sd) }},
		{"10", func() error { return figSnapshot(mtmrp.RandomTopo, 15, sd) }},
		// MTMRP with each mechanism removed in turn (the paper only
		// ablates PHS).
		s.figure("ablation", "ablation",
			fmt.Sprintf("Extension: MTMRP mechanism ablation, grid, 20 receivers (%d runs)", r),
			func(e mtmrp.EngineOptions) (*mtmrp.Table, error) {
				res, err := mtmrp.AblationSweep(mtmrp.AblationConfig{Topo: mtmrp.GridTopo, GroupSize: 20, Runs: r, Seed: sd, Engine: e})
				return table(err, func() *mtmrp.Table { return &res.Table })
			}),
		// How the one-time discovery cost amortises over data packets
		// (§V.B.3's trade-off).
		s.figure("amortize", "amortize",
			fmt.Sprintf("Extension: discovery-cost amortization, grid, 20 receivers (%d runs)", r),
			func(e mtmrp.EngineOptions) (*mtmrp.Table, error) {
				res, err := mtmrp.AmortizeSweep(mtmrp.AmortizeConfig{Topo: mtmrp.GridTopo, GroupSize: 20, Runs: r, Seed: sd, Engine: e})
				return table(err, func() *mtmrp.Table { return &res.Table })
			}),
		// The Figure 5 comparison point under log-normal fading (the
		// paper disables shadowing).
		s.figure("shadowing", "shadowing",
			fmt.Sprintf("Extension: log-normal shadowing robustness, grid, 20 receivers (%d runs)", r),
			func(e mtmrp.EngineOptions) (*mtmrp.Table, error) {
				res, err := mtmrp.ShadowingSweep(mtmrp.ShadowingConfig{Topo: mtmrp.GridTopo, GroupSize: 20, Runs: r, Seed: sd, Engine: e})
				return table(err, func() *mtmrp.Table { return &res.Table })
			}),
		// PDR and tree repair versus the per-node crash probability, with
		// paced traffic, route refresh and forwarder expiry active.
		s.figure("faults", "faults",
			fmt.Sprintf("Extension: PDR vs node-failure rate, grid, 20 receivers (%d runs)", r),
			func(e mtmrp.EngineOptions) (*mtmrp.Table, error) {
				res, err := mtmrp.FaultSweep(mtmrp.FaultConfig{Topo: mtmrp.GridTopo, GroupSize: 20, Runs: r, Seed: sd, Engine: e})
				return table(err, func() *mtmrp.Table { return &res.Table })
			}),
		// Delivery and control overhead versus random-waypoint speed and
		// pause (speed 0 is the static control).
		s.figure("mobility", "mobility",
			fmt.Sprintf("Extension: PDR and overhead vs node speed, grid, 20 receivers (%d runs)", r),
			func(e mtmrp.EngineOptions) (*mtmrp.Table, error) {
				res, err := mtmrp.MobilitySweep(mtmrp.MobilityConfig{Topo: mtmrp.GridTopo, GroupSize: 20, Runs: r, Seed: sd, Engine: e})
				return table(err, func() *mtmrp.Table { return &res.Table })
			}),
	}

	start := time.Now()
	err = fmt.Errorf("unknown figure %q", *fig)
	for _, f := range figs {
		if *fig == "all" || *fig == f.name {
			if err = f.run(); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		stopProf()
		os.Exit(1)
	}
	fmt.Printf("\n[done in %v]\n", time.Since(start).Round(time.Millisecond))
}

// sweeps holds what every sweep figure shares: the signal-aware context,
// the -workers pool size and the -csv directory.
type sweeps struct {
	ctx     context.Context
	workers int
	csvDir  string
}

// figure wraps a sweep driver as a -fig target: it runs the driver with
// the shared engine options, prints its table and engine accounting, and
// writes <csvName>.csv. A cancelled sweep still prints (and writes) the
// rounds it completed.
func (s sweeps) figure(name, csvName, title string, run func(mtmrp.EngineOptions) (*mtmrp.Table, error)) figure {
	return figure{name, func() error {
		fmt.Printf("=== %s ===\n", title)
		t, err := run(s.engine())
		if t == nil {
			return err
		}
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			fmt.Printf("  [interrupted: %d of %d runs done, %d skipped — tables below are partial]\n",
				t.Stats.Completed, t.Stats.Total, t.Stats.Skipped)
		}
		printTable(t)
		if s.csvDir != "" {
			if werr := writeCSV(filepath.Join(s.csvDir, csvName+".csv"), t); werr != nil {
				return werr
			}
		}
		st := t.Stats
		fmt.Printf("[engine] %d runs on %d workers in %v (%.1f ms/run, %.0f events/run)\n\n",
			st.Completed, st.Workers, st.Wall.Round(time.Millisecond),
			1e3*st.RunWall.Mean, st.RunEvents.Mean)
		return err
	}}
}

// table keeps a driver's table unless err is a fail-fast abort, the one
// case in which a driver returns no result.
func table(err error, get func() *mtmrp.Table) (*mtmrp.Table, error) {
	if err != nil && !mtmrp.PartialOK(err) {
		return nil, err
	}
	return get(), err
}

// engine builds the sweep options: the signal-aware context, the -workers
// pool size, and a throttled progress meter on stderr.
func (s sweeps) engine() mtmrp.EngineOptions {
	var last time.Time
	return mtmrp.EngineOptions{
		Workers: s.workers,
		Ctx:     s.ctx,
		Progress: func(p mtmrp.Progress) {
			now := time.Now()
			if p.Done < p.Total && now.Sub(last) < 500*time.Millisecond {
				return
			}
			last = now
			fmt.Fprintf(os.Stderr, "\r  %d/%d runs  elapsed %v  eta %v   ",
				p.Done, p.Total,
				p.Elapsed.Round(time.Second), p.ETA.Round(time.Second))
			if p.Done == p.Total {
				fmt.Fprint(os.Stderr, "\r\033[K")
			}
		},
	}
}

// printTable prints one block per metric: axis points down, rows across,
// each cell "mean ± ci95", right-aligned.
func printTable(t *mtmrp.Table) {
	aw, cw := len(t.AxisName), 17
	for _, x := range t.Axis {
		aw = max(aw, len(x))
	}
	for _, row := range t.Rows {
		cw = max(cw, len(row))
	}
	for m, metric := range t.Metrics {
		fmt.Printf("\n--- %s ---\n%*s", metric, aw, t.AxisName)
		for _, row := range t.Rows {
			fmt.Printf("  %*s", cw, row)
		}
		fmt.Println()
		for ai, x := range t.Axis {
			fmt.Printf("%*s", aw, x)
			for r := range t.Rows {
				s := t.Cells[r][ai][m]
				fmt.Printf("  %*s", cw, fmt.Sprintf("%.3f ± %.3f", s.Mean, s.CI95))
			}
			fmt.Println()
		}
	}
}

// writeCSV writes a table to path in long form: one line per
// (axis point, row, metric) with the full summary.
func writeCSV(path string, t *mtmrp.Table) error {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	lines := [][]string{{t.AxisName, "row", "metric", "n", "mean", "std", "ci95", "min", "max"}}
	for ai, x := range t.Axis {
		for r, row := range t.Rows {
			for m, metric := range t.Metrics {
				s := t.Cells[r][ai][m]
				lines = append(lines, []string{x, row, metric, strconv.Itoa(s.N),
					g(s.Mean), g(s.Std), g(s.CI95), g(s.Min), g(s.Max)})
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(lines); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fig1 reproduces the motivating example: three tree constructions over
// the paper's didactic network and over the evaluation grid.
func fig1() error {
	fmt.Println("=== Figure 1: multicast trees under three path-selection metrics ===")
	fmt.Println("(paper's example: SPT 7 tx, minimum Steiner 7 tx, minimum-transmission 4 tx)")
	topo := mtmrp.Grid()
	rcv, err := mtmrp.PickReceivers(topo, 0, 5, 1)
	if err != nil {
		return err
	}
	fmt.Printf("\n10x10 evaluation grid, 5 random receivers (seed 1): %v\n\n", rcv)
	type build struct {
		name string
		fn   func(*mtmrp.Topology, int, []int) (*mtmrp.Tree, error)
	}
	for _, b := range []build{
		{"shortest-path tree (Fig. 1a)", mtmrp.SPTTree},
		{"Steiner tree, KMB (Fig. 1b)", mtmrp.SteinerTree},
		{"Node-Join-Tree (Jia et al. [3])", mtmrp.NodeJoinTreeTree},
		{"Tree-Join-Tree (Jia et al. [3])", mtmrp.TreeJoinTreeTree},
		{"min-transmission tree (Fig. 1c)", mtmrp.MinTransmissionTree},
	} {
		tr, err := b.fn(topo, 0, rcv)
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		fmt.Printf("  %-34s transmissions=%2d  extra nodes=%2d\n",
			b.name, tr.Transmissions(), tr.ExtraNodes())
	}
	return nil
}

func figSnapshot(kind mtmrp.TopoKind, size int, seed uint64) error {
	figNo := 9
	if kind == mtmrp.RandomTopo {
		figNo = 10
	}
	fmt.Printf("=== Figure %d: routing-path snapshots, %s topology, %d receivers ===\n",
		figNo, kind, size)
	for _, p := range []mtmrp.Protocol{mtmrp.MTMRP, mtmrp.DODMRP, mtmrp.ODMRP} {
		snap, out, err := mtmrp.SnapshotRun(kind, size, p, seed)
		if err != nil {
			return err
		}
		r := out.Result
		fmt.Printf("\n--- %s: %d transmissions, %d extra nodes, delivery %.0f%% ---\n",
			p, r.Transmissions, r.ExtraNodes, 100*r.DeliveryRatio)
		fmt.Print(snap.Render())
	}
	fmt.Println(strings.Repeat("-", 60))
	return nil
}
