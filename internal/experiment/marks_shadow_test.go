package experiment

import (
	"testing"

	"mtmrp/internal/neighbor"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

// attachMarkShadows attaches the id-indexed mark oracle (neighbor's
// marksref) to every router that keeps a neighbor table, and returns how
// many it armed. With a shadow attached, every covered/forwarder mutation
// is mirrored into the reference layout and every read cross-checked,
// panicking on the first divergence — so simply completing a run is the
// assertion.
func attachMarkShadows(s *Session) int {
	n := 0
	for _, r := range s.Routers() {
		if h, ok := r.(interface{ NeighborTable() *neighbor.Table }); ok {
			if tb := h.NeighborTable(); tb != nil {
				tb.Shadow()
				n++
			}
		}
	}
	return n
}

// TestSlotMarksMatchIDMarksAllProtocols runs every protocol with the
// differential mark oracle armed on every node: the slot-indexed mark
// layout must agree with the retained id-indexed reference on every read
// of a full hello+discovery+data run, and again after a pooled Reset
// (which must empty both layouts in lockstep).
func TestSlotMarksMatchIDMarksAllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-run differential check; skipped in -short")
	}
	grid := topology.PaperGrid()
	links := LinkTableFor(grid)
	for _, p := range allProtocolsPlus {
		t.Run(p.String(), func(t *testing.T) {
			sc := Scenario{
				Topo: grid, Source: 0, Protocol: p,
				Receivers: []int{7, 23, 42, 58, 76, 91},
				Links:     links, Seed: 11,
			}
			s, err := NewSession(sc)
			if err != nil {
				t.Fatal(err)
			}
			armed := attachMarkShadows(s)
			switch p {
			case Flooding, GMR:
				// No neighbor table — nothing to check, and that is itself
				// worth pinning: the harness must not die on them.
				if armed != 0 {
					t.Fatalf("armed %d shadows on neighbor-table-less protocol", armed)
				}
			default:
				if armed != len(grid.Positions) {
					t.Fatalf("armed %d shadows, want %d", armed, len(grid.Positions))
				}
			}
			run := func() {
				s.RunHello()
				s.RunDiscovery(0)
				if _, err := s.RunData(2); err != nil {
					t.Fatal(err)
				}
			}
			run()
			// Reset must clear both layouts together; the rerun re-checks
			// every read over recycled slots and session rows.
			sc.Seed = 22
			if err := s.Reset(sc); err != nil {
				t.Fatal(err)
			}
			run()
		})
	}
}

// TestSlotMarksMatchIDMarksUnderChurn is the mobility variant: a mobile
// paced run with periodic refreshes registers several session keys per
// table while links come and go, so mark reads and writes interleave with
// session-registry growth under the oracle on every node.
func TestSlotMarksMatchIDMarksUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-run differential check; skipped in -short")
	}
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			sc := mobileScenario(t, p)
			sc.Traffic.DataPackets = 12
			sc.Faults.ForwarderExpiry = 150 * sim.Millisecond
			s, err := NewSession(sc)
			if err != nil {
				t.Fatal(err)
			}
			if attachMarkShadows(s) == 0 {
				t.Fatal("no shadows armed")
			}
			s.RunHello()
			s.RunDiscovery(0)
			if _, err := s.RunData(0); err != nil {
				t.Fatal(err)
			}
		})
	}
}
