package channel

import (
	"testing"

	"mtmrp/internal/geom"
	"mtmrp/internal/packet"
	"mtmrp/internal/radio"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
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
// all-pairs builder: identical links (destination, delay, power), in
// identical order, for both discs — the property every bit-identity claim
// downstream rests on.
func TestLinkTableMatchesNaive(t *testing.T) {
	params := radio.MustDefault80211Params(40, 2.2)
	for _, n := range []int{1, 2, 17, 100, 200} {
		pts := randomField(n, 200, rng.New(uint64(n)))
		grid := NewLinkTable(pts, params)
		naive := newLinkTableNaive(pts, params)
		if grid.N() != naive.N() {
			t.Fatalf("n=%d: N %d != %d", n, grid.N(), naive.N())
		}
		for i := 0; i < n; i++ {
			for _, pair := range []struct {
				name      string
				got, want []link
			}{
				{"rx", grid.rx[i], naive.rx[i]},
				{"cs", grid.cs[i], naive.cs[i]},
			} {
				if len(pair.got) != len(pair.want) {
					t.Fatalf("n=%d node %d %s: %d links, want %d", n, i, pair.name, len(pair.got), len(pair.want))
				}
				for k := range pair.want {
					if pair.got[k] != pair.want[k] {
						t.Fatalf("n=%d node %d %s[%d]: %+v, want %+v", n, i, pair.name, k, pair.got[k], pair.want[k])
					}
				}
			}
		}
	}
}

// denseChannel builds a channel over the paper-scale random field with a
// radio attached to every node, for the allocation and benchmark loops.
func denseChannel(n int) (*sim.Simulator, *Channel) {
	s := sim.New()
	params := radio.MustDefault80211Params(40, 2.2)
	pts := randomField(n, 200, rng.New(7))
	c := New(s, pts, params, Config{})
	for i := range pts {
		c.Attach(i, &nopRadio{})
	}
	return s, c
}

type nopRadio struct{}

func (nopRadio) FrameReceived(*packet.Packet) {}
func (nopRadio) CarrierChanged(bool)          {}

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
// the paper-scale 200-node field, against the naive reference.
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
}
