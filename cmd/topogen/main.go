// Command topogen generates deployment files for pinned, replayable
// scenarios:
//
//	topogen -kind grid > grid.json
//	topogen -kind random -nodes 200 -seed 7 > field.json
//	topogen -kind random -nodes 10000 -side 0 > city.json   # density-scaled field
//	topogen -check field.json        # validate + print stats
//
// The scaling mode (-side 0) derives the field edge from the node count so
// the paper's density is preserved: 10k–100k-node deployments for the
// parallel-engine benchmarks generate in O(n·density) through the
// grid-indexed adjacency build — no quadratic pass anywhere.
//
// It can also record a deterministic motion trace for the deployment —
// the waypoint plan a mobile Scenario with the same seed would draw — so
// tests and cmd/traceview can replay the exact motion from a file:
//
//	topogen -kind grid -motion plan.json -speed 10 -pause 500ms > grid.json
//	topogen -kind random -motion plan.json -model rpgm -groups 4 > field.json
//
// Topology files are consumed by `mtmrsim -topofile`; motion files by
// Scenario.Mobility.Trace (via mtmrp.LoadMotion) and `traceview -motion`.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mtmrp/internal/experiment"
	"mtmrp/internal/mobility"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

func main() {
	var (
		kind    = flag.String("kind", "grid", "grid or random")
		nodes   = flag.Int("nodes", 200, "node count (random)")
		side    = flag.Float64("side", 200, "field edge length (m); 0 scales the field to keep the paper's density for -nodes")
		txRange = flag.Float64("range", 40, "transmission range (m)")
		seed    = flag.Uint64("seed", 1, "placement seed (random); also drives the motion plan")
		check   = flag.String("check", "", "validate an existing file instead of generating")

		motion   = flag.String("motion", "", "also write a motion trace to this file")
		model    = flag.String("model", "random-waypoint", "motion model: random-waypoint (or waypoint, rwp) or rpgm")
		speed    = flag.Float64("speed", 10, "maximum node speed (m/s)")
		minSpeed = flag.Float64("minspeed", 0, "minimum node speed (m/s, 0 = speed/10)")
		pause    = flag.Duration("pause", 0, "maximum waypoint pause")
		horizon  = flag.Duration("horizon", time.Second, "virtual time the plan must cover")
		groups   = flag.Int("groups", 4, "RPGM group count")
	)
	flag.Parse()
	if err := run(*kind, *nodes, *side, *txRange, *seed, *check,
		*motion, *model, *speed, *minSpeed, *pause, *horizon, *groups); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run(kind string, nodes int, side, txRange float64, seed uint64, check,
	motion, model string, speed, minSpeed float64, pause, horizon time.Duration, groups int) error {
	if check != "" {
		f, err := os.Open(check)
		if err != nil {
			return err
		}
		defer f.Close()
		topo, err := topology.Load(f)
		if err != nil {
			return err
		}
		fmt.Printf("file:       %s\n", check)
		fmt.Printf("kind:       %s\n", topo.Kind())
		fmt.Printf("nodes:      %d\n", topo.N())
		fmt.Printf("field:      %.0f m, range %.0f m\n", topo.Side, topo.Range)
		fmt.Printf("avg degree: %.2f\n", topo.AvgDegree())
		fmt.Printf("connected:  %v\n", topo.Connected())
		return nil
	}

	if side <= 0 {
		side = topology.ScaledField(nodes)
	}
	var topo *topology.Topology
	k, err := experiment.ParseTopoKind(kind)
	if err == nil {
		if k == experiment.GridTopo {
			topo, err = topology.Grid(10, 10, side, txRange)
		} else {
			topo, err = topology.RandomConnected(nodes, side, txRange, rng.New(seed), 100)
		}
	}
	if err != nil {
		return err
	}
	if motion != "" {
		if err := writeMotion(topo, seed, motion, model, speed, minSpeed, pause, horizon, groups); err != nil {
			return err
		}
	}
	return topo.Save(os.Stdout)
}

// writeMotion draws the deployment's motion plan from the seed's
// "mobility" substream — the same derivation a Scenario uses, so a
// recorded trace equals the plan a live run with that seed would draw —
// and saves it. The source (node 0) is pinned, as in the sweeps.
func writeMotion(topo *topology.Topology, seed uint64, path, model string,
	speed, minSpeed float64, pause, horizon time.Duration, groups int) error {
	m, ok := mobility.ParseModel(model)
	if !ok || m == mobility.None {
		return fmt.Errorf("unknown motion model %q", model)
	}
	if speed <= 0 {
		return fmt.Errorf("motion needs -speed > 0")
	}
	plan := mobility.Draw(mobility.Config{
		Model:    m,
		Field:    topo.Side,
		MinSpeed: minSpeed,
		MaxSpeed: speed,
		Pause:    sim.Time(pause),
		Horizon:  sim.Time(horizon),
		Groups:   groups,
		Pinned:   []int{0},
	}, topo.Positions, rng.New(seed).Derive("mobility"))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := plan.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
