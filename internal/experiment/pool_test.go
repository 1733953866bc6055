package experiment

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mtmrp/internal/experiment/sweep"
	"mtmrp/internal/rng"
	"mtmrp/internal/topology"
)

// allProtocolsPlus is every protocol the harness knows, including the two
// baselines outside the paper's figure legends.
var allProtocolsPlus = []Protocol{MTMRP, MTMRPNoPHS, DODMRP, ODMRP, Flooding, GMR}

// TestPooledRunMatchesFresh is the session-reuse contract: a pooled run —
// including one through a session that has already run a different
// scenario — returns exactly the Result and flood key a fresh run does,
// for every protocol, with receivers, seeds, group sizes and (random)
// topology instances all rotating between reuses.
func TestPooledRunMatchesFresh(t *testing.T) {
	root := rng.New(0xA11CE)
	grid := topology.PaperGrid()
	gridLinks := LinkTableFor(grid)
	rand1, err := topology.PaperRandom(root.Derive("topo-1"))
	if err != nil {
		t.Fatal(err)
	}
	rand2, err := topology.PaperRandom(root.Derive("topo-2"))
	if err != nil {
		t.Fatal(err)
	}
	rand1Links, rand2Links := LinkTableFor(rand1), LinkTableFor(rand2)

	// One pool for the whole test: protocols interleave, so each pooled
	// session is reset many times with other work in between.
	pool := NewSessionPool()
	for iter := 0; iter < 3; iter++ {
		for _, p := range allProtocolsPlus {
			cases := []struct {
				name string
				sc   Scenario
			}{
				{
					name: "grid",
					sc: Scenario{
						Topo: grid, Source: 0, Protocol: p,
						Links: gridLinks,
					},
				},
				{
					name: "random1",
					sc: Scenario{
						Topo: rand1, Source: 0, Protocol: p,
						Links: rand1Links, Traffic: TrafficOptions{DataPackets: 2},
					},
				},
				{
					name: "random2",
					sc: Scenario{
						Topo: rand2, Source: 0, Protocol: p,
						Links: rand2Links, N: 5, Delta: 2e6,
					},
				},
			}
			for ci, c := range cases {
				sc := c.sc
				seedRNG := root.Derive(fmt.Sprintf("seed-%d-%s-%d", iter, p, ci))
				sc.Seed = seedRNG.Uint64()
				size := 5 + 5*((iter+ci)%3)
				rcv, err := sc.Topo.PickReceivers(0, size, seedRNG.Derive("receivers"))
				if err != nil {
					t.Fatal(err)
				}
				sc.Receivers = rcv

				fresh, err := Run(sc)
				if err != nil {
					t.Fatalf("%v/%s iter %d: fresh run: %v", p, c.name, iter, err)
				}
				pooled, err := pool.Run(sc)
				if err != nil {
					t.Fatalf("%v/%s iter %d: pooled run: %v", p, c.name, iter, err)
				}
				if pooled.Key != fresh.Key {
					t.Fatalf("%v/%s iter %d: key diverged: pooled %+v fresh %+v",
						p, c.name, iter, pooled.Key, fresh.Key)
				}
				if !reflect.DeepEqual(pooled.Result, fresh.Result) {
					t.Fatalf("%v/%s iter %d: result diverged:\npooled %+v\nfresh  %+v",
						p, c.name, iter, pooled.Result, fresh.Result)
				}
			}
		}
	}
}

// TestPooledSweepMatchesFreshSweep runs the same tiny sweep of paired
// rounds twice: through the per-worker pool's RunRound, at one worker and
// at four, and as fresh Runs row by row. The rows cover every protocol,
// so rounds mix rows that share one HELLO phase with Flooding and GMR,
// which run their own. The per-round metric vectors must agree bitwise.
func TestPooledSweepMatchesFreshSweep(t *testing.T) {
	grid := topology.PaperGrid()
	links := LinkTableFor(grid)
	const runs = 6
	label := func(i int) string { return fmt.Sprintf("pool-eq-%d", i) }
	job := func(_ context.Context, job *sweep.Job) ([][NumMetrics]float64, error) {
		rcv, err := grid.PickReceivers(0, 5+5*(job.Index%3), job.RNG.Derive("receivers"))
		if err != nil {
			return nil, err
		}
		scs := make([]Scenario, len(allProtocolsPlus))
		for pi, p := range allProtocolsPlus {
			scs[pi] = Scenario{
				Topo: grid, Source: 0, Receivers: rcv, Protocol: p,
				Seed:  job.RNG.Derive("run").Uint64(),
				Links: links,
			}
		}
		values := make([][NumMetrics]float64, len(scs))
		if pool, ok := job.State.(*SessionPool); ok {
			_, err := pool.RunRound(scs, func(r int, out *Outcome) error {
				measureFigure(out, 0, values[r][:])
				return nil
			})
			return values, err
		}
		for r, sc := range scs {
			out, err := Run(sc)
			if err != nil {
				return nil, err
			}
			measureFigure(out, 0, values[r][:])
		}
		return values, nil
	}

	run := func(workers int, pooled bool) [][][NumMetrics]float64 {
		t.Helper()
		cfg := sweep.Config{Seed: 0xBEEF, Workers: workers}
		if pooled {
			cfg.WorkerState = func() any { return NewSessionPool() }
		}
		outs, _, err := sweep.Run(cfg, runs, label, job)
		if err != nil {
			t.Fatalf("workers=%d pooled=%v: %v", workers, pooled, err)
		}
		vals := make([][][NumMetrics]float64, len(outs))
		for i, o := range outs {
			vals[i] = o.Value
		}
		return vals
	}

	ref := run(1, false)
	for _, workers := range []int{1, 4} {
		got := run(workers, true)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("pooled sweep at %d workers diverged from fresh serial sweep", workers)
		}
	}
}
