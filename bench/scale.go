package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"mtmrp/internal/experiment"
	"mtmrp/internal/sim"
)

// scaleConfig sizes the single-session scale workload.
type scaleConfig struct {
	Nodes, Receivers, Packets int
}

// scale10k: MTMRP with 50 receivers and 30 data packets on a 10k-node
// deployment at the paper's density (ScaledField), one deployment per
// session.
var scale10k = scaleConfig{Nodes: 10000, Receivers: 50, Packets: 30}

// scaleSpec is the run spec of the i-th session of a run (-1 is the
// warm-up session).
func scaleSpec(cfg scaleConfig, seed uint64, i int) experiment.RunSpec {
	s := derive(seed, uint64(i+1))
	return experiment.RunSpec{
		Topo:      experiment.TopoSpec{Kind: "random", Nodes: cfg.Nodes, Seed: s},
		GroupSize: cfg.Receivers, Protocol: "mtmrp", Seed: s,
		Traffic: experiment.TrafficSpec{DataPackets: cfg.Packets},
	}
}

// runScale runs serial sessions, each on a fresh deployment, until the run
// length is reached as closely as whole sessions allow, after one untimed
// warm-up session. Set-up is the topology, its link table and NewSession;
// the session time is hello, discovery and data. Throughput counts whole
// sessions, set-up included; latency is the median session time. Both are
// rescaled to the reference host speed by the readings of the reference
// work taken at every phase boundary (refclock.go); the forced GC that
// starts each reading gives the live heap.
func runScale(ctx context.Context, rc runConfig, cfg scaleConfig) (*report, error) {
	rep := &report{}
	var setups, sessions, rawSetups, rawSessions []time.Duration
	var events, pending, pdrs []float64
	var peak uint64
	clock := newComputeClock(1) // the sessions are serial
	if _, err := scaleSession(scaleSpec(cfg, rc.Seed, -1), clock, &peak); err != nil {
		return nil, fmt.Errorf("warm-up session: %w", err)
	}
	clock.restart()
	start := time.Now()
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep.attempted++
		r, err := scaleSession(scaleSpec(cfg, rc.Seed, i), clock, &peak)
		if err != nil {
			rep.fail("session %d: %v", i, err)
			clock.restart()
		} else {
			rawSetups, rawSessions = append(rawSetups, r.setup), append(rawSessions, r.run)
			setups = append(setups, time.Duration(float64(r.setup)*r.factor))
			sessions = append(sessions, time.Duration(float64(r.run)*r.factor))
			events = append(events, float64(r.stats.Processed))
			pending = append(pending, float64(r.stats.MaxPending))
			pdrs = append(pdrs, r.pdr)
		}
		if time.Since(start)+(r.setup+r.run)/2 >= rc.Seconds {
			break
		}
	}
	if len(sessions) == 0 {
		return nil, fmt.Errorf("every session failed: %v", rep.failures)
	}
	// Delivery is checked on the run's median session. Over 484 sessions on
	// 44 seeds, 7.9% of 10k-node deployments delivered below 80% and 3.7%
	// below 70% (the worst, 20%), and one seed's median session delivered
	// 78%: a property of MTMRP at this scale, not of this run's outputs. A
	// median below 70% is then about a 1-in-10^4 event for a healthy
	// protocol, and certain for one that stops delivering.
	rep.attempted++
	if m := median(sortedCopy(pdrs)); m < minScalePDR {
		rep.fail("median mean PDR %.3f over %d sessions below %g", m, len(pdrs), minScalePDR)
	}
	mib := float64(peak) / (1 << 20)
	rates, rawRates := make([]float64, len(sessions)), make([]float64, len(sessions))
	for i, d := range sessions {
		rates[i] = 1 / (setups[i] + d).Seconds()
		rawRates[i] = 1 / (rawSetups[i] + rawSessions[i]).Seconds()
	}
	rep.addMedian("setup_s", "s", inUnit(setups, "s"))
	rep.addMedian("throughput_per_s", "1/s", rates)
	rep.addMedian("latency_p50_ms", "ms", inUnit(sessions, "ms"))
	rep.add("peak_rss_mib", "MiB", selfPeakRSSMiB(), nil)
	rep.addMedian("setup_raw_s", "s", inUnit(rawSetups, "s"))
	rep.addMedian("throughput_raw_per_s", "1/s", rawRates)
	rep.addMedian("latency_p50_raw_ms", "ms", inUnit(rawSessions, "ms"))
	clock.report(rep)
	rep.add("peak_heap_mib", "MiB", mib, nil)
	rep.add("heap_kib_per_node", "KiB", mib*1024/float64(cfg.Nodes), nil)
	rep.addMedian("events", "count", events)
	rep.addMedian("max_pending", "count", pending)
	rep.addMedian("pdr_median", "ratio", pdrs)
	rep.add("pdr_min", "ratio", sortedCopy(pdrs)[0], nil)
	return rep, nil
}

// minScalePDR is the lowest acceptable median delivery of a scale run.
const minScalePDR = 0.7

// scaleResult is one scale session's outcome: its set-up time, its
// hello+discovery+data time, the factor that rescales both to the
// reference host speed, its scheduler counters and its mean packet
// delivery ratio.
type scaleResult struct {
	setup, run time.Duration
	factor     float64
	stats      sim.Stats
	pdr        float64
}

// scaleSession builds and runs one session, taking a reading of the
// reference work at every phase boundary and raising *peak to the highest
// live heap seen at one. The reading after the data phase ends the
// session's unit of the clock.
func scaleSession(rs experiment.RunSpec, clock *refClock, peak *uint64) (r scaleResult, err error) {
	reading := func() {
		clock.tick()
		*peak = max(*peak, clock.heap)
	}
	t := time.Now()
	s, err := newSession(rs)
	r.setup = time.Since(t)
	if err != nil {
		return r, err
	}
	reading()
	r.run = timed(s.RunHello)
	reading()
	r.run += timed(func() { s.RunDiscovery(0) })
	reading()
	t = time.Now()
	_, err = s.RunData(0)
	r.run += time.Since(t)
	r.factor = clock.factor()
	*peak = max(*peak, clock.heap)
	if err != nil {
		return r, err
	}
	r.stats, r.pdr = s.Stats(), s.Robustness().MeanPDR
	return r, nil
}

// selfPeakRSSMiB is this process's peak resident set so far.
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN() // split rejects the metric, failing the run
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func timed(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}
