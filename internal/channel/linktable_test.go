package channel

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"mtmrp/internal/geom"
	"mtmrp/internal/packet"
	"mtmrp/internal/radio"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
	"mtmrp/internal/topology"
)

// randomField draws n uniform positions in a side x side square.
func randomField(n int, side float64, r *rng.RNG) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, side), Y: r.Range(0, side)}
	}
	return pts
}

// TestLinkTableMatchesNaive pins the grid-built table to the reference
// all-pairs builder: identical links (destination, decode-range flag,
// delay, power), in identical order, each flag set exactly when the
// destination lies inside the reception disc — the property every
// bit-identity claim downstream rests on. Both builders must also lay the
// lists out alike: consecutive exact-capacity runs of one flat slice.
func TestLinkTableMatchesNaive(t *testing.T) {
	params := radio.MustDefault80211Params(40, 2.2)
	rx := params.TxRange()
	for _, n := range []int{1, 2, 17, 100, 200} {
		pts := randomField(n, 200, rng.New(uint64(n)))
		grid := NewLinkTable(pts, params)
		naive := newLinkTableNaive(pts, params)
		if grid.N() != naive.N() {
			t.Fatalf("n=%d: N %d != %d", n, grid.N(), naive.N())
		}
		flags := 0
		for i := 0; i < n; i++ {
			got, want := grid.cs[i], naive.cs[i]
			if len(got) != len(want) {
				t.Fatalf("n=%d node %d: %d links, want %d", n, i, len(got), len(want))
			}
			for k, w := range want {
				g := got[k]
				if g.to() != w.to() || g.rx() != w.rx() || g.delay() != w.delay() || g.power != w.power {
					t.Fatalf("n=%d node %d link %d: to %d rx %v delay %v power %g, want to %d rx %v delay %v power %g",
						n, i, k, g.to(), g.rx(), g.delay(), g.power, w.to(), w.rx(), w.delay(), w.power)
				}
				if inRX := pts[i].Dist(pts[w.to()]) <= rx; w.rx() != inRX {
					t.Fatalf("n=%d node %d link %d: rx flag %v, want %v", n, i, k, w.rx(), inRX)
				}
				if g.rx() {
					flags++
				}
			}
		}
		if n >= 100 && flags == 0 {
			t.Fatalf("n=%d: no link carries the decode-range flag", n)
		}
		for name, tab := range map[string]*LinkTable{"grid": grid, "naive": naive} {
			if err := carvedFlat(tab); err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
		}
	}
}

// carvedFlat reports whether tab's lists are consecutive runs of one
// flat slice, each with capacity equal to its length.
func carvedFlat(tab *LinkTable) error {
	var next uintptr // address just past the previous non-empty run
	for i, ls := range tab.cs {
		if cap(ls) != len(ls) {
			return fmt.Errorf("node %d: list of %d links has capacity %d", i, len(ls), cap(ls))
		}
		if len(ls) == 0 {
			continue
		}
		start := uintptr(unsafe.Pointer(&ls[0]))
		if next != 0 && start != next {
			return fmt.Errorf("node %d: list does not start where the previous run ends", i)
		}
		next = start + uintptr(len(ls))*unsafe.Sizeof(link{})
	}
	return nil
}

// TestLinkSize pins the packed link layout: a 10k-node table holds over a
// million links, so every byte here is a megabyte there.
func TestLinkSize(t *testing.T) {
	if got := unsafe.Sizeof(link{}); got != 16 {
		t.Fatalf("link is %d bytes, want 16", got)
	}
}

// denseChannel builds a channel over the paper-scale random field with a
// radio attached to every node, for the allocation and benchmark loops.
func denseChannel(n int) (*sim.Simulator, *Channel) {
	s := sim.New()
	params := radio.MustDefault80211Params(40, 2.2)
	pts := randomField(n, 200, rng.New(7))
	c := NewWithTable(s, NewLinkTable(pts, params), Config{})
	for i := range pts {
		c.Attach(i, &nopRadio{})
	}
	return s, c
}

type nopRadio struct{}

func (nopRadio) CarrierChanged(bool) {}

// TestTransmitAllocs is the hot-path allocation guard: once the event pool,
// the fan records and the node's cached fan order are warm, a transmission
// — tx-end event, a start and an end cursor over the whole fan, an arrival
// per RX neighbor, and the full drain — must run without touching the heap
// allocator.
func TestTransmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	s, c := denseChannel(200)
	p := packet.NewHello(0, nil)
	// Warm: one full transmit/drain cycle populates every pool.
	c.Transmit(0, p)
	s.Run()

	if got := testing.AllocsPerRun(100, func() {
		c.Transmit(0, p)
		s.Run()
	}); got != 0 {
		t.Errorf("Transmit+drain allocates %.1f objects/op in steady state, want 0", got)
	}
}

// BenchmarkTransmitDense measures one transmission plus its full event
// drain on a paper-scale 200-node random field (the densest hot path the
// sweeps exercise).
func BenchmarkTransmitDense(b *testing.B) {
	s, c := denseChannel(200)
	p := packet.NewHello(0, nil)
	c.Transmit(0, p)
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Transmit(0, p)
		s.Run()
	}
}

// BenchmarkLinkTableBuild measures the grid-backed table construction on
// the paper-scale 200-node field, against the naive reference, and on a
// 10k-node field of the same density (topology.ScaledField), the
// deployment every scale session builds afresh.
func BenchmarkLinkTableBuild(b *testing.B) {
	params := radio.MustDefault80211Params(40, 2.2)
	pts := randomField(200, 200, rng.New(7))
	b.Run("grid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewLinkTable(pts, params)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			newLinkTableNaive(pts, params)
		}
	})
	scaled := randomField(10000, topology.ScaledField(10000), rng.New(7))
	b.Run("scaled-10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewLinkTable(scaled, params)
		}
	})
}

// TestLinkTableBuildAllocs pins the carved layout's cost on
// BenchmarkLinkTableBuild/grid's 200-node field and on a 4x larger field
// of the same density: a build makes the same small number of
// allocations whatever its node count (per-node lists grown by append
// made 2,723 on the 200-node field), and allocates at most 16 bytes per
// link plus a bounded amount per node (list headers, degree counts, the
// grid index) and a fixed amount of query scratch.
func TestLinkTableBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	params := radio.MustDefault80211Params(40, 2.2)
	const maxAllocs, perNode, fixed = 16, 64, 16 << 10
	for _, f := range []struct {
		n    int
		side float64
	}{{200, 200}, {800, 400}} {
		pts := randomField(f.n, f.side, rng.New(7))
		links := 0
		for _, ls := range NewLinkTable(pts, params).cs {
			links += len(ls)
		}
		allocs := testing.AllocsPerRun(10, func() { NewLinkTable(pts, params) })
		if allocs > maxAllocs {
			t.Errorf("%d nodes: NewLinkTable made %.0f allocations, want at most %d", f.n, allocs, maxAllocs)
		}
		const builds = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range builds {
			NewLinkTable(pts, params)
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / builds
		if limit := uint64(16*links + perNode*f.n + fixed); got > limit {
			t.Errorf("%d nodes: NewLinkTable allocated %d bytes for %d links, want at most %d",
				f.n, got, links, limit)
		}
		t.Logf("%d nodes, %d links: %.0f allocations, %d bytes per build (%.1f per link)",
			f.n, links, allocs, got, float64(got)/float64(links))
	}
}

// fuzzField decodes a fuzzer's bytes into a radio configuration and up to
// 256 positions in a field of about 300 m, so that both builders stay
// cheap. The first byte picks the carrier-sense ratio (1, 1.5 or 2.2:
// carrier-sense disc equal to the reception disc or wider). Then each
// step reads an opcode and two argument bytes: a fresh point, a duplicate
// of an earlier one, a point at an earlier one's reception or
// carrier-sense radius in one of 256 directions (whose Dist lands within
// an ulp or so of the radius, either side), or a pair anchored at X = 0
// exactly on a radius, whose Dist equals it bit for bit.
func fuzzField(data []byte) (radio.Params, []geom.Point) {
	ratios := [...]float64{1, 1.5, 2.2}
	if len(data) == 0 {
		return radio.MustDefault80211Params(40, 2.2), nil
	}
	params := radio.MustDefault80211Params(40, ratios[int(data[0])%len(ratios)])
	radii := [...]float64{params.TxRange(), params.CSRange()}
	var pts []geom.Point
	for k := 1; k+2 < len(data) && len(pts) < 256; k += 3 {
		op, a, b := data[k], data[k+1], data[k+2]
		fresh := geom.Point{X: float64(a) * 1.2, Y: float64(b)*1.2 + float64(op)/256}
		if len(pts) == 0 {
			pts = append(pts, fresh)
			continue
		}
		from := pts[int(a)%len(pts)]
		switch op % 6 {
		case 0, 1:
			pts = append(pts, fresh)
		case 2:
			pts = append(pts, from)
		case 3, 4:
			r := radii[op%6-3]
			theta := 2 * math.Pi * float64(b) / 256
			pts = append(pts, from.Add(geom.Point{X: r * math.Cos(theta), Y: r * math.Sin(theta)}))
		case 5:
			y := float64(b) * 1.2
			pts = append(pts, geom.Point{X: 0, Y: y}, geom.Point{X: radii[a%2], Y: y})
		}
	}
	return params, pts
}

// FuzzLinkTableMatchesNaive holds the sweep-and-transpose build to the
// all-pairs reference on fuzzer-generated fields with duplicate points
// and pairs at (or within an ulp of) the reception and carrier-sense
// radii, where the build's squared-distance test must hand over to Dist:
// every list alike edge for edge (destination, decode-range flag, delay,
// power), at the same length, and both laid out as runs of one flat
// slice with every capacity equal to its length. The checked-in corpus under testdata/fuzz runs in every
// plain go test.
func FuzzLinkTableMatchesNaive(f *testing.F) {
	f.Add([]byte{2, 0, 10, 10, 3, 0, 0, 4, 0, 64, 2, 1, 0, 5, 0, 30, 5, 1, 90})
	f.Add([]byte{0, 0, 100, 100, 3, 0, 17, 3, 1, 200, 4, 0, 99, 2, 2, 0, 5, 0, 7})
	f.Add([]byte{1, 1, 5, 5, 0, 6, 6, 1, 7, 5, 2, 0, 0, 2, 1, 0, 4, 2, 128, 3, 3, 33})
	f.Fuzz(func(t *testing.T, data []byte) {
		params, pts := fuzzField(data)
		got, want := NewLinkTable(pts, params), newLinkTableNaive(pts, params)
		if err := linksEqual(got, want); err != nil {
			t.Fatalf("%d points: %v", len(pts), err)
		}
		for name, tab := range map[string]*LinkTable{"grid": got, "naive": want} {
			if err := carvedFlat(tab); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}
