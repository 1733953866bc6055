package experiment

import (
	"testing"

	"mtmrp/internal/packet"
	"mtmrp/internal/topology"
)

func TestMultiPacketSession(t *testing.T) {
	topo := topology.PaperGrid()
	out, err := Run(Scenario{
		Topo: topo, Source: 0, Receivers: []int{55, 99}, Protocol: MTMRP,
		Traffic: TrafficOptions{DataPackets: 5}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := out.Result
	if r.DataTxTotal < 5 {
		t.Errorf("DataTxTotal = %d for 5 packets", r.DataTxTotal)
	}
	// Tree is fixed: total data frames ≈ packets x per-packet tree size
	// (collisions can shave a few).
	if r.DataTxTotal > uint64(5*r.Transmissions) {
		t.Errorf("DataTxTotal %d exceeds 5 x tree size %d", r.DataTxTotal, r.Transmissions)
	}
	// Every packet should reach both receivers on a quiet grid.
	type counter interface{ DataReceived(packet.FloodKey) int }
	for _, rcv := range []int{55, 99} {
		if c, ok := out.Routers[rcv].(counter); ok {
			if got := c.DataReceived(out.Key); got != 5 {
				t.Errorf("receiver %d got %d packets, want 5", rcv, got)
			}
		}
	}
}

func TestAmortizeSweepSmall(t *testing.T) {
	res, err := AmortizeSweep(AmortizeConfig{
		Topo:      GridTopo,
		GroupSize: 10,
		Packets:   []int{1, 10},
		Runs:      3,
		Seed:      4,
		Protocols: []Protocol{MTMRP, Flooding},
	})
	if err != nil {
		t.Fatal(err)
	}
	const frames, data = 0, 1 // metric indexes
	for pi, p := range []Protocol{MTMRP, Flooding} {
		pts := res.Cells[pi]
		if len(pts) != 2 {
			t.Fatalf("%v: %d points", p, len(pts))
		}
		// Amortisation: per-packet total cost must fall as the packet
		// count grows (the constructed tree is reused).
		if pts[1][frames].Mean >= pts[0][frames].Mean && p == MTMRP {
			t.Errorf("%v: no amortisation: %.1f -> %.1f",
				p, pts[0][frames].Mean, pts[1][frames].Mean)
		}
	}
	// Steady-state data cost: MTMRP's tree must beat flooding decisively.
	if res.Cells[0][1][data].Mean >= res.Cells[1][1][data].Mean {
		t.Error("MTMRP steady-state cost should be far below flooding")
	}
}
