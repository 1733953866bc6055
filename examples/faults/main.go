// Faults: inject node crashes and bursty channel loss into a session and
// watch the protocol's soft state keep the multicast tree delivering.
//
//	go run ./examples/faults
package main

import (
	"fmt"
	"log"

	"mtmrp"
)

func main() {
	// The paper's evaluation grid: 100 nodes, 200 m x 200 m, 40 m range.
	topo := mtmrp.Grid()
	receivers, err := mtmrp.PickReceivers(topo, 0, 20, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Draw a crash schedule: every node except the source faults with 20%
	// probability, at a uniform time in [1.2 s, 1.8 s). The schedule is
	// armed when the session starts, and the HELLO phase runs until the
	// event queue drains, so every crash happens before route discovery
	// begins: the tree is built around the dead nodes. Crashes are
	// permanent here — set Downtime to let nodes come back.
	plan := mtmrp.FaultPlan{
		Nodes:        topo.N(),
		Protect:      []int{0},
		FailFraction: 0.2,
		Start:        1200 * mtmrp.Millisecond,
		Window:       600 * mtmrp.Millisecond,
	}
	schedule := mtmrp.PlanFaults(plan, 7)
	fmt.Printf("fault schedule: %d nodes crash\n", schedule.Crashed())
	for _, e := range schedule {
		fmt.Printf("  t=%-8v node %-3d %v\n", e.At, e.Node, e.Kind)
	}

	// Layer Gilbert–Elliott bursty loss under the crashes: links flip
	// between a lossless good state and a total-loss bad state with a mean
	// burst of four frames.
	loss := mtmrp.DefaultLossModel()

	// The Faults options compose with paced traffic: packets every 50 ms,
	// a JoinQuery re-flood every 200 ms (ODMRP's route refresh), and
	// forwarder flags that expire 300 ms after their last refresh. The
	// refresh + expiry pair is what reroutes around the dead nodes.
	out, err := mtmrp.Run(mtmrp.Scenario{
		Topo:      topo,
		Source:    0,
		Receivers: receivers,
		Protocol:  mtmrp.MTMRP,
		Seed:      1,
		Traffic: mtmrp.TrafficOptions{
			DataPackets:     20,
			Interval:        50 * mtmrp.Millisecond,
			RefreshInterval: 200 * mtmrp.Millisecond,
		},
		Faults: mtmrp.FaultOptions{
			Schedule:        schedule,
			Loss:            &loss,
			ForwarderExpiry: 300 * mtmrp.Millisecond,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Robustness reports the fault-tolerance view of the run: how much of
	// the traffic each receiver saw, and how the tree recovered.
	rb := out.Robustness
	fmt.Printf("\n%d data packets through %d crashes and bursty loss:\n",
		rb.DataSent, schedule.Crashed())
	fmt.Printf("  mean packet delivery ratio:  %.3f\n", rb.MeanPDR)
	fmt.Printf("  worst receiver's PDR:        %.3f\n", rb.MinPDR)
	fmt.Printf("  tree repairs (closed gaps):  %d\n", rb.Repairs)
	if rb.Repairs > 0 {
		fmt.Printf("  mean time to repair:         %v\n", rb.MeanTimeToRepair)
	}

	// The same run without any faults, for contrast.
	clean, err := mtmrp.Run(mtmrp.Scenario{
		Topo: topo, Source: 0, Receivers: receivers,
		Protocol: mtmrp.MTMRP, Seed: 1,
		Traffic: mtmrp.TrafficOptions{
			DataPackets:     20,
			Interval:        50 * mtmrp.Millisecond,
			RefreshInterval: 200 * mtmrp.Millisecond,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfault-free baseline:           %.3f mean PDR\n", clean.Robustness.MeanPDR)

	// Faults need not be crashes, nor permanent: the same draw with Degrade
	// set makes each faulting node's links drop half their frames
	// (DefaultLossModel's DegradedDrop) instead, and Downtime heals each
	// one 300 ms after it degrades.
	plan.Downtime, plan.Degrade = 300*mtmrp.Millisecond, true
	healing := mtmrp.PlanFaults(plan, 7)
	degraded, err := mtmrp.Run(mtmrp.Scenario{
		Topo: topo, Source: 0, Receivers: receivers,
		Protocol: mtmrp.MTMRP, Seed: 1,
		Traffic: mtmrp.TrafficOptions{
			DataPackets:     20,
			Interval:        50 * mtmrp.Millisecond,
			RefreshInterval: 200 * mtmrp.Millisecond,
		},
		Faults: mtmrp.FaultOptions{Schedule: healing, ForwarderExpiry: 300 * mtmrp.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d nodes degraded for 300 ms:    %.3f mean PDR\n", len(healing)/2, degraded.Robustness.MeanPDR)
}
