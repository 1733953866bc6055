package mac

import (
	"testing"

	"mtmrp/internal/channel"
	"mtmrp/internal/geom"
	"mtmrp/internal/packet"
	"mtmrp/internal/radio"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
)

// rig builds a simulator + channel over the given positions.
func rig(pos []geom.Point) (*sim.Simulator, *channel.Channel) {
	s := sim.New()
	params := radio.MustDefault80211Params(40, 2.2)
	return s, channel.New(s, pos, params, channel.Config{})
}

func hello(from packet.NodeID) *packet.Packet { return packet.NewHello(from, nil) }

func TestCSMAImmediateWhenIdle(t *testing.T) {
	s, ch := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	m0 := NewCSMA(s, ch, 0, DefaultCSMAConfig(), rng.New(1))
	m1 := NewCSMA(s, ch, 1, DefaultCSMAConfig(), rng.New(2))
	var got []*packet.Packet
	m1.SetUpper(func(p *packet.Packet) { got = append(got, p) })
	m0.Send(hello(0))
	s.Run()
	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(got))
	}
	// Idle medium: DIFS + airtime + propagation, no backoff slots.
	maxExpected := DefaultCSMAConfig().DIFS + ch.Duration(got[0].Size) + sim.Microsecond
	if s.Now() > maxExpected {
		t.Errorf("took %v, want <= %v (no backoff on idle medium)", s.Now(), maxExpected)
	}
}

func TestCSMADefersWhileBusy(t *testing.T) {
	// Node 0 transmits; node 1 queues during the transmission and must
	// wait until the medium clears (plus DIFS and a backoff draw).
	s, ch := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}})
	m0 := NewCSMA(s, ch, 0, DefaultCSMAConfig(), rng.New(1))
	m1 := NewCSMA(s, ch, 1, DefaultCSMAConfig(), rng.New(2))
	_ = NewCSMA(s, ch, 2, DefaultCSMAConfig(), rng.New(3))

	var order []packet.NodeID
	ch.OnDeliver = func(to int, p *packet.Packet) {
		if to == 2 {
			order = append(order, p.From)
		}
	}
	m0.Send(hello(0))
	s.After(10*sim.Microsecond, func() { m1.Send(hello(1)) })
	s.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("delivery order at node 2 = %v, want [0 1] (no collision)", order)
	}
}

func TestCSMATwoContendersNoCollisionWithDistinctSlots(t *testing.T) {
	// Both nodes queue while a third transmits. They draw random backoff
	// slots; across many seeds most pairs differ and both frames survive.
	succeeded := 0
	const trials = 20
	for seed := uint64(0); seed < trials; seed++ {
		s, ch := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}, {X: 10, Y: 10}})
		m0 := NewCSMA(s, ch, 0, DefaultCSMAConfig(), rng.New(seed*3+1))
		m1 := NewCSMA(s, ch, 1, DefaultCSMAConfig(), rng.New(seed*3+2))
		m2 := NewCSMA(s, ch, 2, DefaultCSMAConfig(), rng.New(seed*3+3))
		var got int
		ch.OnDeliver = func(to int, p *packet.Packet) {
			if to == 3 && p.From != 0 {
				got++
			}
		}
		m0.Send(hello(0))
		s.After(10*sim.Microsecond, func() {
			m1.Send(hello(1))
			m2.Send(hello(2))
		})
		s.Run()
		if got == 2 {
			succeeded++
		}
	}
	// With CW=32 the same-slot collision probability is 1/32; 20 trials
	// should nearly always see >= 15 successes.
	if succeeded < 15 {
		t.Errorf("only %d/%d contention rounds delivered both frames", succeeded, trials)
	}
}

func TestCSMAQueueFIFO(t *testing.T) {
	s, ch := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	m0 := NewCSMA(s, ch, 0, DefaultCSMAConfig(), rng.New(1))
	m1 := NewCSMA(s, ch, 1, DefaultCSMAConfig(), rng.New(2))
	var sizes []int
	m1.SetUpper(func(p *packet.Packet) { sizes = append(sizes, p.Size) })
	for i := 1; i <= 3; i++ {
		p := hello(0)
		p.Size = i * 10
		m0.Send(p)
	}
	if m0.QueueLen() != 3 { // head is dequeued only when it hits the air
		t.Errorf("queue length = %d, want 3", m0.QueueLen())
	}
	s.Run()
	if len(sizes) != 3 || sizes[0] != 10 || sizes[1] != 20 || sizes[2] != 30 {
		t.Errorf("delivery order = %v", sizes)
	}
}

func TestCSMAQueueOverflowDrops(t *testing.T) {
	s, ch := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	cfg := DefaultCSMAConfig()
	cfg.MaxQueue = 2
	m0 := NewCSMA(s, ch, 0, cfg, rng.New(1))
	_ = NewCSMA(s, ch, 1, cfg, rng.New(2))
	for i := 0; i < 10; i++ {
		m0.Send(hello(0))
	}
	if m0.Dropped == 0 {
		t.Error("expected queue overflow drops")
	}
	s.Run()
	// All ten Sends land before DIFS elapses, so the bound of 2 queued
	// frames admits exactly two transmissions.
	if got := ch.Stats().Transmissions; got != 2 {
		t.Errorf("transmissions = %d, want 2", got)
	}
	if m0.Dropped != 8 {
		t.Errorf("dropped = %d, want 8", m0.Dropped)
	}
}

func TestIdealImmediateAndSerialized(t *testing.T) {
	s, ch := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	m0 := NewIdeal(s, ch, 0)
	m1 := NewIdeal(s, ch, 1)
	var got []*packet.Packet
	m1.SetUpper(func(p *packet.Packet) { got = append(got, p) })
	m0.Send(hello(0))
	m0.Send(hello(0))
	s.Run()
	if len(got) != 2 {
		t.Fatalf("deliveries = %d, want 2 (back-to-back, no self-overlap)", len(got))
	}
}

func TestIdealIgnoresCarrier(t *testing.T) {
	// Two ideal MACs transmitting simultaneously collide at the receiver —
	// Ideal does not carrier-sense. This is the documented contract.
	s, ch := rig([]geom.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 60, Y: 0}})
	m0 := NewIdeal(s, ch, 0)
	m2 := NewIdeal(s, ch, 2)
	var got int
	ch.OnDeliver = func(to int, p *packet.Packet) {
		if to == 1 {
			got++
		}
	}
	m0.Send(hello(0))
	m2.Send(hello(2))
	s.Run()
	if got != 0 {
		t.Errorf("deliveries = %d, want 0 (collision)", got)
	}
}

func TestCSMAReceiveDuringContention(t *testing.T) {
	// A node with a queued frame still receives frames that finish before
	// its own transmission starts.
	s, ch := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	m0 := NewCSMA(s, ch, 0, DefaultCSMAConfig(), rng.New(1))
	m1 := NewCSMA(s, ch, 1, DefaultCSMAConfig(), rng.New(2))
	var got0 int
	m0.SetUpper(func(p *packet.Packet) { got0++ })
	m1.Send(hello(1))
	s.After(5*sim.Microsecond, func() { m0.Send(hello(0)) })
	s.Run()
	if got0 != 1 {
		t.Errorf("node 0 received %d frames, want 1", got0)
	}
}

// TestCSMAAdoptIdle: a reset MAC adopting an idle one takes its drop
// count and its random stream, and a MAC with a frame in contention
// cannot be adopted.
func TestCSMAAdoptIdle(t *testing.T) {
	s, ch := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	cfg := DefaultCSMAConfig()
	cfg.MaxQueue = 2
	src := NewCSMA(s, ch, 0, cfg, rng.New(1))
	other := NewCSMA(s, ch, 1, cfg, rng.New(2))
	for i := 0; i < 5; i++ {
		src.Send(hello(0))
		other.Send(hello(1))
	}
	s.Run()
	if src.Dropped == 0 || *src.rnd == *rng.New(1) {
		t.Fatalf("source dropped %d frames and drew no backoff; the test needs both", src.Dropped)
	}

	s2, ch2 := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	dst := NewCSMA(s2, ch2, 0, cfg, rng.New(3))
	dst.AdoptIdle(src)
	if dst.Dropped != src.Dropped || *dst.rnd != *src.rnd || dst.state != csmaIdle || dst.slots != -1 {
		t.Errorf("adopted: dropped %d, slots %d, state %d; source dropped %d", dst.Dropped, dst.slots, dst.state, src.Dropped)
	}

	src.Send(hello(0))
	defer func() {
		if recover() == nil {
			t.Error("AdoptIdle from a MAC with a queued frame did not panic")
		}
	}()
	dst.AdoptIdle(src)
}
