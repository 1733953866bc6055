package experiment

import (
	"runtime"
	"testing"

	"mtmrp/internal/topology"
)

// TestSessionReuseSteadyStateAllocs pins the tentpole guarantee of session
// pooling: once a session has run its scenario shape a few times — so every
// free list, arena and scratch slice has reached its high-water mark — a
// complete reset-and-rerun cycle (Reset, HELLO, discovery, data) allocates
// nothing. Metrics extraction (Snapshot/Outcome) is deliberately outside
// the loop: it builds the caller-owned Result and is called once per run,
// not once per event.
func TestSessionReuseSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement; skipped in -short")
	}
	grid := topology.PaperGrid()
	links := LinkTableFor(grid)
	seeds := []uint64{11, 22, 33, 44}

	for _, p := range allProtocolsPlus {
		t.Run(p.String(), func(t *testing.T) {
			sc := Scenario{
				Topo: grid, Source: 0, Protocol: p,
				Receivers: []int{7, 23, 42, 58, 76, 91},
				Links:     links,
			}
			sc.Seed = seeds[0]
			s, err := NewSession(sc)
			if err != nil {
				t.Fatal(err)
			}
			cycle := func(seed uint64) {
				sc.Seed = seed
				if err := s.Reset(sc); err != nil {
					t.Fatal(err)
				}
				s.RunHello()
				s.RunDiscovery(0)
				if _, err := s.RunData(0); err != nil {
					t.Fatal(err)
				}
			}
			// First pass grows every structure to its per-seed high-water
			// mark; subsequent identical passes must reuse all of it.
			s.RunHello()
			s.RunDiscovery(0)
			if _, err := s.RunData(0); err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				cycle(seed)
			}
			i := 0
			allocs := testing.AllocsPerRun(2*len(seeds), func() {
				cycle(seeds[i%len(seeds)])
				i++
			})
			if allocs != 0 {
				t.Fatalf("steady-state reset+run allocated %.1f objects/op, want 0", allocs)
			}
		})
	}

	// A paired round of every protocol through the pool: the rows take
	// their sessions, the first proto.Base row runs HELLO and the others
	// adopt it, Flooding and GMR run their own, and every row runs
	// discovery and data — RunRound without the outcome extraction. The
	// measured rounds must make no allocation in total: GMR frames cut
	// their branches from the factory's arenas, so no round depends on
	// which recycled frame it is handed.
	t.Run("round", func(t *testing.T) {
		pool := NewSessionPool()
		scs := make([]Scenario, len(allProtocolsPlus))
		rcv := []int{7, 23, 42, 58, 76, 91}
		round := func(seed uint64) {
			for r, p := range allProtocolsPlus {
				scs[r] = Scenario{Topo: grid, Source: 0, Protocol: p, Seed: seed, Receivers: rcv, Links: links}
			}
			if err := pool.startRound(scs); err != nil {
				t.Fatal(err)
			}
			for _, s := range pool.rows {
				s.RunDiscovery(0)
				if _, err := s.RunData(0); err != nil {
					t.Fatal(err)
				}
			}
		}
		for range 2 {
			for _, seed := range seeds {
				round(seed)
			}
		}
		before := pool.adopted
		i := 0
		runs := 2 * len(seeds)
		if n := mallocs(runs, func() {
			round(seeds[i%len(seeds)])
			i++
		}); n != 0 {
			t.Fatalf("%d steady-state rounds allocated %d objects in total, want 0", runs, n)
		}
		if pool.adopted == before {
			t.Fatal("no row adopted a HELLO phase")
		}
	})
}

// mallocs returns the heap allocations f makes over runs calls after one
// warm-up call, on one P as testing.AllocsPerRun measures them. It
// returns the total rather than AllocsPerRun's per-run quotient, which
// floors a few allocations spread over the runs to 0.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
