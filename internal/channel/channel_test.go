package channel

import (
	"slices"
	"testing"

	"mtmrp/internal/geom"
	"mtmrp/internal/packet"
	"mtmrp/internal/radio"
	"mtmrp/internal/sim"
)

// stubRadio records everything the channel tells a node: the carrier
// edges its radio hears and the frames the delivery hook hands it.
type stubRadio struct {
	frames  []*packet.Packet
	carrier []bool
}

func (r *stubRadio) CarrierChanged(b bool) { r.carrier = append(r.carrier, b) }

// build creates a channel over the given positions with 40 m range,
// attaches a stub radio per node and records decoded frames through the
// delivery hook.
func build(t *testing.T, pos []geom.Point, cfg Config) (*sim.Simulator, *Channel, []*stubRadio) {
	t.Helper()
	s := sim.New()
	params := radio.MustDefault80211Params(40, 2.2)
	c := NewWithTable(s, NewLinkTable(pos, params), cfg)
	return s, c, stubs(c, len(pos))
}

// stubs attaches a stub radio to each of the channel's n nodes and
// records decoded frames at them through the delivery hook.
func stubs(c *Channel, n int) []*stubRadio {
	radios := make([]*stubRadio, n)
	for i := range radios {
		radios[i] = &stubRadio{}
		c.Attach(i, radios[i])
	}
	c.Deliver = func(to int, p *packet.Packet) { radios[to].frames = append(radios[to].frames, p) }
	return radios
}

func hello(from packet.NodeID) *packet.Packet {
	return packet.NewHello(from, nil)
}

func TestDeliveryWithinRange(t *testing.T) {
	s, c, radios := build(t, []geom.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 100, Y: 0}}, Config{})
	c.Transmit(0, hello(0))
	s.Run()
	if len(radios[1].frames) != 1 {
		t.Errorf("node 1 (30 m) got %d frames, want 1", len(radios[1].frames))
	}
	if len(radios[2].frames) != 0 {
		t.Errorf("node 2 (100 m) got %d frames, want 0", len(radios[2].frames))
	}
	if len(radios[0].frames) != 0 {
		t.Errorf("transmitter received its own frame")
	}
	st := c.Stats()
	if st.Transmissions != 1 || st.Deliveries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCarrierSenseBeyondDecodeRange(t *testing.T) {
	// 60 m: too far to decode (40 m) but inside the 88 m carrier disc.
	s, c, radios := build(t, []geom.Point{{X: 0, Y: 0}, {X: 60, Y: 0}}, Config{})
	c.Transmit(0, hello(0))
	s.Run()
	if len(radios[1].frames) != 0 {
		t.Error("60 m neighbor must not decode")
	}
	want := []bool{true, false}
	if len(radios[1].carrier) != 2 || radios[1].carrier[0] != want[0] || radios[1].carrier[1] != want[1] {
		t.Errorf("carrier transitions = %v, want %v", radios[1].carrier, want)
	}
}

func TestTransmitterSensesOwnSignal(t *testing.T) {
	s, c, radios := build(t, []geom.Point{{X: 0, Y: 0}}, Config{})
	c.Transmit(0, hello(0))
	if !c.Busy(0) {
		t.Error("transmitter should sense its own carrier")
	}
	s.Run()
	if c.Busy(0) {
		t.Error("carrier should clear after transmission")
	}
	if len(radios[0].carrier) != 2 {
		t.Errorf("carrier transitions = %v", radios[0].carrier)
	}
}

func TestCollisionDestroysBoth(t *testing.T) {
	// Nodes 0 and 2 both in range of 1; simultaneous transmissions collide
	// at 1 but nodes 0/2 are 60 m apart (cannot decode each other anyway).
	s, c, radios := build(t, []geom.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 60, Y: 0}}, Config{})
	c.Transmit(0, hello(0))
	c.Transmit(2, hello(2))
	s.Run()
	if len(radios[1].frames) != 0 {
		t.Errorf("node 1 decoded %d frames during a collision", len(radios[1].frames))
	}
	if got := c.Stats().Collisions; got != 2 {
		t.Errorf("collision count = %d, want 2", got)
	}
}

func TestPartialOverlapCollides(t *testing.T) {
	s, c, radios := build(t, []geom.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 60, Y: 0}}, Config{})
	c.Transmit(0, hello(0))
	// Start the second frame halfway through the first.
	s.At(c.Duration(packet.HelloSize)/2, func() { c.Transmit(2, hello(2)) })
	s.Run()
	if len(radios[1].frames) != 0 {
		t.Error("partial overlap must destroy both frames")
	}
}

func TestNoCollisionWhenSequential(t *testing.T) {
	s, c, radios := build(t, []geom.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 60, Y: 0}}, Config{})
	c.Transmit(0, hello(0))
	s.At(c.Duration(packet.HelloSize)+sim.Microsecond, func() { c.Transmit(2, hello(2)) })
	s.Run()
	if len(radios[1].frames) != 2 {
		t.Errorf("node 1 got %d frames, want 2", len(radios[1].frames))
	}
}

func TestDisableCollisions(t *testing.T) {
	s, c, radios := build(t, []geom.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 60, Y: 0}},
		Config{DisableCollisions: true})
	c.Transmit(0, hello(0))
	c.Transmit(2, hello(2))
	s.Run()
	if len(radios[1].frames) != 2 {
		t.Errorf("collisions disabled: node 1 got %d frames, want 2", len(radios[1].frames))
	}
}

func TestHalfDuplex(t *testing.T) {
	// Node 1 transmits while node 0's frame is arriving: reception aborted.
	s, c, radios := build(t, []geom.Point{{X: 0, Y: 0}, {X: 30, Y: 0}}, Config{})
	c.Transmit(0, hello(0))
	s.At(c.Duration(packet.HelloSize)/2, func() { c.Transmit(1, hello(1)) })
	s.Run()
	if len(radios[1].frames) != 0 {
		t.Error("node transmitting mid-reception must not decode")
	}
	// Node 0 is also mid-cycle... node 0 finished transmitting before
	// node 1's frame ends, but node 1's frame started while node 0 was
	// still transmitting, so node 0 loses it too.
	if got := c.Stats().HalfDuplex; got < 1 {
		t.Errorf("half-duplex count = %d, want >= 1", got)
	}
}

func TestHalfDuplexReceiverTransmitting(t *testing.T) {
	s, c, radios := build(t, []geom.Point{{X: 0, Y: 0}, {X: 30, Y: 0}}, Config{})
	// Node 1 starts transmitting first; node 0's frame arrives mid-tx.
	c.Transmit(1, hello(1))
	s.At(sim.Microsecond, func() { c.Transmit(0, hello(0)) })
	s.Run()
	if len(radios[1].frames) != 0 {
		t.Error("busy transmitter must not decode an arriving frame")
	}
}

func TestPropagationDelayOrdering(t *testing.T) {
	// The frame must arrive strictly after it was sent.
	s, c, radios := build(t, []geom.Point{{X: 0, Y: 0}, {X: 39, Y: 0}}, Config{})
	var sentAt, gotAt sim.Time
	sentAt = s.Now()
	c.Transmit(0, hello(0))
	s.Run()
	gotAt = s.Now()
	if gotAt <= sentAt {
		t.Error("no time elapsed during transmission")
	}
	if len(radios[1].frames) != 1 {
		t.Fatal("frame lost")
	}
}

func TestUIDAssigned(t *testing.T) {
	s, c, radios := build(t, []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}, Config{})
	p1 := hello(0)
	p2 := hello(0)
	c.Transmit(0, p1)
	s.Run()
	c.Transmit(0, p2)
	s.Run()
	if p1.UID == 0 || p2.UID == 0 || p1.UID == p2.UID {
		t.Errorf("UIDs = %d, %d", p1.UID, p2.UID)
	}
	if len(radios[1].frames) != 2 {
		t.Fatalf("deliveries = %d", len(radios[1].frames))
	}
}

func TestDoubleAttachPanics(t *testing.T) {
	s := sim.New()
	c := NewWithTable(s, NewLinkTable([]geom.Point{{X: 0, Y: 0}}, radio.MustDefault80211Params(40, 2.2)), Config{})
	c.Attach(0, &stubRadio{})
	defer func() {
		if recover() == nil {
			t.Error("double attach should panic")
		}
	}()
	c.Attach(0, &stubRadio{})
}

func TestTransmitWhileTransmittingPanics(t *testing.T) {
	s, c, _ := build(t, []geom.Point{{X: 0, Y: 0}}, Config{})
	c.Transmit(0, hello(0))
	defer func() {
		if recover() == nil {
			t.Error("overlapping transmit from one node should panic")
		}
	}()
	c.Transmit(0, hello(0))
	_ = s
}

func TestOnAirAndOnDeliverHooks(t *testing.T) {
	s, c, _ := build(t, []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}, Config{})
	var airs, deliveries int
	c.OnAir = func(from int, p *packet.Packet) { airs++ }
	c.Deliver = func(to int, p *packet.Packet) { deliveries++ }
	c.Transmit(0, hello(0))
	s.Run()
	if airs != 1 || deliveries != 1 {
		t.Errorf("hooks: airs=%d deliveries=%d", airs, deliveries)
	}
}

// TestNeighborCount: a frame reaches exactly the decode-range neighbors
// of its sender.
func TestNeighborCount(t *testing.T) {
	s, c, _ := build(t, []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}, {X: 100, Y: 0}}, Config{})
	var got []int
	c.Deliver = func(to int, p *packet.Packet) { got = append(got, to) }
	c.Transmit(0, hello(0))
	s.Run()
	if len(got) != 2 || got[0]+got[1] != 3 {
		t.Errorf("delivered to %v, want nodes 1 and 2", got)
	}
}

func TestThreeWayCollision(t *testing.T) {
	// Three transmitters around a common receiver: everything lost.
	s, c, radios := build(t, []geom.Point{
		{X: 0, Y: 0},   // receiver
		{X: 30, Y: 0},  // tx A
		{X: -30, Y: 0}, // tx B
		{X: 0, Y: 30},  // tx C
	}, Config{})
	c.Transmit(1, hello(1))
	c.Transmit(2, hello(2))
	c.Transmit(3, hello(3))
	s.Run()
	if len(radios[0].frames) != 0 {
		t.Errorf("receiver decoded %d frames out of a 3-way collision", len(radios[0].frames))
	}
}

// TestDeafRadioHearsNoCarrierEdges pins the Radio contract: a radio that
// called Listen(i, false) is told of no carrier edge, while its node
// still senses the medium (Busy) and still decodes frames, and a
// listening radio is told of every 0↔1 edge of its node's busy count,
// once, however many signals overlap. Node 0 transmits and node 5 starts
// half a frame later; nodes 1 and 2 decode node 0, nodes 3 and 4 only
// sense it, and nodes 2 and 4 do not listen.
func TestDeafRadioHearsNoCarrierEdges(t *testing.T) {
	s, c, radios := build(t, []geom.Point{
		{X: 0, Y: 0},  // transmitter
		{X: 30, Y: 0}, // decodes, listens
		{X: 0, Y: 30}, // decodes, deaf
		{X: 60, Y: 0}, // senses only, listens
		{X: 0, Y: 60}, // senses only, deaf
		{X: 20, Y: 20},
	}, Config{})
	c.Listen(2, false)
	c.Listen(4, false)
	busyMid := map[int]bool{}
	half := c.Duration(packet.HelloSize) / 2
	c.Transmit(0, hello(0))
	s.At(half, func() { c.Transmit(5, hello(5)) })
	s.At(half+sim.Microsecond, func() {
		for _, i := range []int{1, 2, 3, 4} {
			busyMid[i] = c.Busy(i)
		}
	})
	s.Run()
	for _, i := range []int{2, 4} {
		if len(radios[i].carrier) != 0 {
			t.Errorf("deaf radio %d was told of carrier edges %v", i, radios[i].carrier)
		}
	}
	for _, i := range []int{1, 3} {
		if want := []bool{true, false}; !slices.Equal(radios[i].carrier, want) {
			t.Errorf("listening radio %d heard %v, want %v (one busy period of two overlapping signals)", i, radios[i].carrier, want)
		}
	}
	for i := 1; i <= 4; i++ {
		if !busyMid[i] {
			t.Errorf("node %d does not sense the medium busy mid-frame", i)
		}
	}
	// Node 5's frame collides with node 0's at the decoders; the deaf
	// decoder loses it the same way as the listening one.
	if len(radios[1].frames) != len(radios[2].frames) {
		t.Errorf("decoded frames: listening node 1 got %d, deaf node 2 got %d", len(radios[1].frames), len(radios[2].frames))
	}
	// Notified counts every edge handed over: the two listeners' pairs,
	// plus the transmitters' own (they listen too).
	var told uint64
	for _, r := range radios {
		told += uint64(len(r.carrier))
	}
	if got := c.Stats().Notified; got != told || got == 0 {
		t.Errorf("Notified = %d, radios were told of %d edges", got, told)
	}
}

// TestEagerCarrierTellsDeafRadios: under Config.EagerCarrier Listen does
// nothing, so a radio that asked not to listen still hears every edge —
// the reference lazy carrier sense is tested against.
func TestEagerCarrierTellsDeafRadios(t *testing.T) {
	s, c, radios := build(t, []geom.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 60, Y: 0}}, Config{EagerCarrier: true})
	c.Listen(1, false)
	c.Listen(2, false)
	c.Transmit(0, hello(0))
	s.Run()
	for _, i := range []int{1, 2} {
		if want := []bool{true, false}; !slices.Equal(radios[i].carrier, want) {
			t.Errorf("radio %d heard %v under EagerCarrier, want %v", i, radios[i].carrier, want)
		}
	}
	if len(radios[1].frames) != 1 {
		t.Errorf("node 1 decoded %d frames, want 1", len(radios[1].frames))
	}
}
