package experiment

import (
	"os"
	"runtime"
	"testing"

	"mtmrp/internal/neighbor"
	"mtmrp/internal/rng"
	"mtmrp/internal/topology"
)

// buildScaleSession constructs a random deployment of n nodes at the
// paper's density and a serial MTMRP session over it, returning the
// session's live-heap cost (bytes, GC-settled) and the session itself.
func buildScaleSession(t testing.TB, n, receivers, packets int) (*Session, uint64) {
	t.Helper()
	topo, err := topology.RandomConnected(n, topology.ScaledField(n), 40, rng.New(7), 20)
	if err != nil {
		t.Fatal(err)
	}
	links := LinkTableFor(topo)
	rcv, err := topo.PickReceivers(0, receivers, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := NewSession(Scenario{
		Topo: topo, Source: 0, Receivers: rcv, Protocol: MTMRP,
		Seed: 7, Links: links,
		Traffic: TrafficOptions{DataPackets: packets},
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc <= before.HeapAlloc {
		t.Fatalf("heap did not grow building a %d-node session", n)
	}
	return s, after.HeapAlloc - before.HeapAlloc
}

// TestSessionMemoryScalesLinearly is the allocation-regression pin for the
// neighborhood-local state layout: per-node session cost must be a
// function of density, not network size. It builds two deployments at the
// same density, 4x apart in node count, and bounds the growth of
// bytes-per-node. Under the old id-indexed mark layout (and the dense
// nbrHop scratch) per-node cost grew linearly in n — the 4x deployment
// cost ~4x more per node — so the 1.5x tolerance cleanly separates the
// two regimes while absorbing allocator and per-run noise.
func TestSessionMemoryScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement; skipped in -short")
	}
	const small, big = 2000, 8000
	sSmall, heapSmall := buildScaleSession(t, small, 20, 1)
	sBig, heapBig := buildScaleSession(t, big, 20, 1)
	perSmall := float64(heapSmall) / small
	perBig := float64(heapBig) / big
	t.Logf("session heap: %d nodes -> %.0f B/node, %d nodes -> %.0f B/node", small, perSmall, big, perBig)
	if perBig > 1.5*perSmall {
		t.Fatalf("per-node session cost grew %.2fx from %d to %d nodes (want <= 1.5x): O(n) state is back",
			perBig/perSmall, small, big)
	}
	runtime.KeepAlive(sSmall)
	runtime.KeepAlive(sBig)
}

// TestSessionPhaseMemoryPerNode bounds what a session's phases add to the
// live heap, GC-settled, per node: hello + discovery + 30 data packets to
// 20 receivers on a 2000-node field at the paper's density. Neighbour
// tables, per-session protocol state and delivery tracking must stay
// neighbourhood- and group-sized. Measured (go1.24, amd64): 2671 B/node
// (hello 1779, discovery and data 892); 2949 B/node (hello 2057) with
// 32-byte entries inserted on each reception; 3850 B/node (hello 2983)
// with slab-stored neighbour tables. With hash-indexed neighbour tables,
// hash-map hop scratch and delivery tracking that grew a whole network
// stride per packet the same run measured 5618 B/node (hello 3658,
// discovery 1665, data 295), so the 3200 B/node bound fails the last
// two.
func TestSessionPhaseMemoryPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement; skipped in -short")
	}
	const n, packets = 2000, 30
	s, _ := buildScaleSession(t, n, 20, packets)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.RunHello()
	s.RunDiscovery(0)
	if _, err := s.RunData(packets); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("hello + discovery + data: %.0f B/node live", per)
	if per > 3200 {
		t.Fatalf("session phases grew the live heap %.0f B/node, want <= 3200", per)
	}
	runtime.KeepAlive(s)
}

// TestHelloPhaseMemoryPerNode bounds what the HELLO phase alone adds to
// the live heap, GC-settled, per node, on the same 2000-node field: the
// neighbour tables, one sorted 16-byte entry per neighbour with the
// memberships in one arena per table, plus each table's HELLO log, which
// is kept for reuse. It samples once every table is built: RunHello seals
// the tables, and the test reads each one through NeighborTable (the
// bench module's read path) before sampling, so a table still holding
// only its log would be folded first. Measured (go1.24, amd64): 1779
// B/node. With 32-byte entries inserted on each reception it measured
// 2057, and with 48-byte entries in 16-record slabs 2983, so the 2000
// B/node bound fails both.
func TestHelloPhaseMemoryPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement; skipped in -short")
	}
	const n = 2000
	s, _ := buildScaleSession(t, n, 20, 1)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.RunHello()
	entries := 0
	for _, r := range s.Routers() {
		entries += r.(interface{ NeighborTable() *neighbor.Table }).NeighborTable().Len()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("hello: %.0f B/node live, %.1f neighbours per table", per, float64(entries)/n)
	if per > 2000 {
		t.Fatalf("the HELLO phase grew the live heap %.0f B/node, want <= 2000", per)
	}
	runtime.KeepAlive(s)
}

// BenchmarkHelloPhase times the HELLO phase of a session on the same
// 2000-node field: a reset, every beacon round, and the seal of every
// neighbour table. The session is reused and every op runs the same seed,
// so an op measures the phase, not construction. 112 ms/op with a sorted
// insert on each reception, 74 ms/op with the HELLO log (2-vCPU host).
func BenchmarkHelloPhase(b *testing.B) {
	s, _ := buildScaleSession(b, 2000, 20, 1)
	sc := s.sc
	s.RunHello()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := s.Reset(sc); err != nil {
			b.Fatal(err)
		}
		s.RunHello()
	}
}

// TestScale50kSmoke is the CI scale gate: a 50k-node deployment must
// construct a session and complete hello, discovery and a data packet,
// end to end, delivering to most of the group. Heavyweight, so it only
// runs when MTMRP_SCALE=1 (CI sets it; locally it is an explicit opt-in).
func TestScale50kSmoke(t *testing.T) {
	if os.Getenv("MTMRP_SCALE") == "" {
		t.Skip("set MTMRP_SCALE=1 to run the 50k-node smoke")
	}
	s, heap := buildScaleSession(t, 50000, 50, 1)
	t.Logf("50k session heap: %.1f MiB (%.0f B/node)", float64(heap)/(1<<20), float64(heap)/50000)
	s.RunHello()
	s.RunDiscovery(0)
	rep, err := s.RunData(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 1 {
		t.Fatalf("sent %d packets, want 1", rep.Sent)
	}
	out, err := s.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	r := out.Result
	t.Logf("50k delivery: %d/%d (tx %d)", r.ReceiversReached, r.ReceiverCount, r.Transmissions)
	if float64(r.ReceiversReached) < 0.8*float64(r.ReceiverCount) {
		t.Fatalf("delivered to %d/%d receivers, want >= 80%%", r.ReceiversReached, r.ReceiverCount)
	}
}
