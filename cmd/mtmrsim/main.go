// Command mtmrsim runs a single multicast session and reports the paper's
// metrics, optionally rendering the forwarder field:
//
//	mtmrsim -topo grid -proto mtmrp -receivers 20 -seed 7 -snapshot
//	mtmrsim -topo random -nodes 200 -proto odmrp -receivers 15
//	mtmrsim -topo random -nodes 10000 -side 0 -receivers 50 -stats
//
// Protocols: mtmrp, mtmrp-nophs, dodmrp, odmrp, flood.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mtmrp"
	"mtmrp/internal/prof"
)

func main() {
	var (
		topoKind = flag.String("topo", "grid", "topology: grid, random, or file (with -topofile)")
		topoFile = flag.String("topofile", "", "load a topology saved by topogen")
		nodes    = flag.Int("nodes", 200, "node count for random topology")
		side     = flag.Float64("side", 200, "field edge length (m); 0 scales the field to keep the paper's density for -nodes")
		txRange  = flag.Float64("range", 40, "transmission range (m)")
		protoArg = flag.String("proto", "mtmrp", "protocol: mtmrp, mtmrp-nophs, dodmrp, odmrp, flood, gmr")
		rcvCount = flag.Int("receivers", 20, "multicast group size")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		nParam   = flag.Int("n", 4, "biased backoff parameter N")
		deltaMs  = flag.Float64("delta", 1, "slot unit delta in milliseconds")
		packets  = flag.Int("packets", 1, "data packets to send down the constructed tree")
		rounds   = flag.Int("rounds", 0, "discovery rounds before sending data (0 = protocol default)")
		snapshot = flag.Bool("snapshot", false, "render the forwarder field")
		stats    = flag.Bool("stats", false, "print simulator stats (events processed and executed, executed events/sec, queue entries, peak queue depth) and each phase's live heap and wall time")
		verbose  = flag.Bool("v", false, "print per-type transmission counts and per-phase event totals")
		traceOut = flag.String("trace", "", "write a JSONL event log to this file (see traceview)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtmrsim:", err)
		os.Exit(1)
	}
	if err := run(*topoKind, *topoFile, *nodes, *side, *txRange, *protoArg, *rcvCount,
		*seed, *nParam, *deltaMs, *packets, *rounds, *snapshot, *stats, *verbose, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "mtmrsim:", err)
		stopProf() // flush profiles on the error path too; defers skip os.Exit
		os.Exit(1)
	}
	stopProf()
}

func run(topoKind, topoFile string, nodes int, side, txRange float64, protoArg string,
	rcvCount int, seed uint64, nParam int, deltaMs float64, packets, rounds int,
	snapshot, stats, verbose bool, traceOut string) error {

	if side <= 0 {
		side = mtmrp.ScaledField(nodes)
	}
	var topo *mtmrp.Topology
	var err error
	switch {
	case topoFile != "":
		topo, err = mtmrp.LoadTopology(topoFile)
		if err != nil {
			return err
		}
	case topoKind == "grid":
		topo = mtmrp.Grid()
	case topoKind == "random":
		topo, err = mtmrp.RandomTopology(nodes, side, txRange, seed)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown topology %q (want grid or random)", topoKind)
	}

	proto, err := parseProtocol(protoArg)
	if err != nil {
		return err
	}

	rcv, err := mtmrp.PickReceivers(topo, 0, rcvCount, seed+1)
	if err != nil {
		return err
	}

	sc := mtmrp.Scenario{
		Topo:      topo,
		Source:    0,
		Receivers: rcv,
		Protocol:  proto,
		N:         nParam,
		Delta:     mtmrp.Duration(deltaMs * float64(mtmrp.Millisecond)),
		Seed:      seed,
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		sc.TraceWriter = f
	}
	// Drive the session phase by phase (rather than the one-shot Run) so
	// each phase's simulator-event share can be reported under -v and the
	// per-phase heap high-water mark under -stats.
	var mem memTrack
	mem.enabled = stats
	mem.sample("baseline")
	s, err := mtmrp.NewSession(sc)
	if err != nil {
		return err
	}
	mem.sample("construct")
	s.RunHello()
	helloEvents := s.Events()
	mem.sample("hello")
	s.RunDiscovery(rounds)
	discoveryEvents := s.Events() - helloEvents
	mem.sample("discovery")
	if _, err := s.RunData(packets); err != nil {
		return err
	}
	dataEvents := s.Events() - helloEvents - discoveryEvents
	mem.sample("data")
	out, err := s.Outcome()
	if err != nil {
		return err
	}
	r := out.Result
	fmt.Printf("protocol:                %s\n", proto)
	fmt.Printf("topology:                %s (%d nodes, %.0fm field, %.0fm range)\n",
		topo.Kind(), topo.N(), topo.Side, topo.Range)
	fmt.Printf("group size:              %d\n", r.ReceiverCount)
	fmt.Printf("transmission overhead:   %d\n", r.Transmissions)
	fmt.Printf("extra nodes:             %d\n", r.ExtraNodes)
	fmt.Printf("average relay profit:    %.3f\n", r.AvgRelayProfit)
	fmt.Printf("delivery:                %d/%d (%.1f%%)\n",
		r.ReceiversReached, r.ReceiverCount, 100*r.DeliveryRatio)
	fmt.Printf("control transmissions:   %d\n", r.ControlTx)
	if verbose {
		fmt.Printf("tx by type:              HELLO=%d JQ=%d JR=%d DATA=%d\n",
			r.TxByType[0], r.TxByType[1], r.TxByType[2], r.TxByType[3])
		fmt.Printf("bytes on air:            %d\n", r.BytesTx)
		fmt.Printf("events by phase:         hello=%d discovery=%d data=%d\n",
			helloEvents, discoveryEvents, dataEvents)
	}
	if stats {
		st := s.Stats()
		fmt.Printf("simulator events:        %d\n", st.Processed)
		fmt.Printf("executed events:         %d (%d elided)\n", st.Executed, st.Processed-st.Executed)
		if st.Entries > 0 {
			fmt.Printf("queue entries:           %d (%.2f events/entry)\n",
				st.Entries, float64(st.Processed)/float64(st.Entries))
		}
		fmt.Printf("peak queue depth:        %d\n", st.MaxPending)
		cs := s.Network().Chan.Stats()
		fmt.Printf("carrier fan calls:       %d run, %d folded (%d of them queued after all)\n",
			cs.FanCalls, cs.Folded, cs.Materialised)
		fmt.Printf("event-loop wall time:    %s\n", st.RunWall)
		fmt.Printf("throughput:              %.0f executed events/sec\n", st.EventsPerSec)
		mem.report(topo.N())
	}
	if snapshot {
		var fwd []int
		for _, f := range r.Forwarders {
			fwd = append(fwd, int(f))
		}
		fmt.Println()
		fmt.Print(mtmrp.NewSnapshot(topo, 0, rcv, fwd).Render())
	}
	return nil
}

// memTrack samples the Go heap after each phase so -stats can report the
// session's resident footprint — the headline number for the 100k-node
// walkthrough, where per-node protocol state (not the event queue) is
// what must stay O(density), not O(n) — and times each phase, which
// tells where a large session's wall time goes.
type memTrack struct {
	enabled bool
	phases  []memSample
	end     time.Time // when the previous sample finished
}

type memSample struct {
	name      string
	wall      time.Duration // the phase's wall time, sampling excluded
	heapAlloc uint64        // live bytes after the phase
	sys       uint64        // total bytes asked of the OS
}

func (m *memTrack) sample(phase string) {
	if !m.enabled {
		return
	}
	wall := time.Since(m.end)
	// Collect first, so heapAlloc counts live bytes rather than whatever
	// garbage the phase left for the next cycle.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.phases = append(m.phases, memSample{name: phase, wall: wall, heapAlloc: ms.HeapAlloc, sys: ms.Sys})
	m.end = time.Now()
}

// report prints one line per phase plus the peak live heap per node.
// heap is live bytes after the phase (so "construct" minus "baseline" is
// the session's structures); sys is the runtime's OS reservation, the
// number that has to fit in the machine; wall is the phase's own time,
// the collection before each sample excluded (none for the baseline).
func (m *memTrack) report(nodes int) {
	if !m.enabled {
		return
	}
	var peak uint64
	for i, p := range m.phases {
		fmt.Printf("memory after %-10s  heap=%s sys=%s", p.name+":", fmtBytes(p.heapAlloc), fmtBytes(p.sys))
		if i > 0 {
			fmt.Printf(" wall=%.3fs", p.wall.Seconds())
		}
		fmt.Println()
		if p.heapAlloc > peak {
			peak = p.heapAlloc
		}
	}
	if nodes > 0 {
		fmt.Printf("peak heap per node:      %s\n", fmtBytes(peak/uint64(nodes)))
	}
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

func parseProtocol(s string) (mtmrp.Protocol, error) {
	switch strings.ToLower(s) {
	case "mtmrp":
		return mtmrp.MTMRP, nil
	case "mtmrp-nophs", "nophs":
		return mtmrp.MTMRPNoPHS, nil
	case "dodmrp":
		return mtmrp.DODMRP, nil
	case "odmrp":
		return mtmrp.ODMRP, nil
	case "flood", "flooding":
		return mtmrp.Flooding, nil
	case "gmr", "geographic":
		return mtmrp.GMR, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q", s)
	}
}
