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

// rig builds a simulator, a channel over the given positions and the
// channel's countdown groups.
func rig(pos []geom.Point) (*sim.Simulator, *channel.Channel, *Countdowns) {
	s := sim.New()
	params := radio.MustDefault80211Params(40, 2.2)
	return s, channel.NewWithTable(s, channel.NewLinkTable(pos, params), channel.Config{}), new(Countdowns)
}

func hello(from packet.NodeID) *packet.Packet { return packet.NewHello(from, nil) }

// receivedAt installs the channel's delivery hook and returns the sizes
// of the frames it hands to node, in delivery order.
func receivedAt(ch *channel.Channel, node int) *[]int {
	sizes := new([]int)
	ch.Deliver = func(to int, p *packet.Packet) {
		if to == node {
			*sizes = append(*sizes, p.Size)
		}
	}
	return sizes
}

func TestCSMAImmediateWhenIdle(t *testing.T) {
	s, ch, cd := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	m0 := NewCSMA(s, ch, cd, 0, DefaultCSMAConfig(), rng.New(1))
	_ = NewCSMA(s, ch, cd, 1, DefaultCSMAConfig(), rng.New(2))
	got := receivedAt(ch, 1)
	m0.Send(hello(0))
	s.Run()
	if len(*got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(*got))
	}
	// Idle medium: DIFS + airtime + propagation, no backoff slots.
	maxExpected := DefaultCSMAConfig().DIFS + ch.Duration((*got)[0]) + sim.Microsecond
	if s.Now() > maxExpected {
		t.Errorf("took %v, want <= %v (no backoff on idle medium)", s.Now(), maxExpected)
	}
}

func TestCSMADefersWhileBusy(t *testing.T) {
	// Node 0 transmits; node 1 queues during the transmission and must
	// wait until the medium clears (plus DIFS and a backoff draw).
	s, ch, cd := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}})
	m0 := NewCSMA(s, ch, cd, 0, DefaultCSMAConfig(), rng.New(1))
	m1 := NewCSMA(s, ch, cd, 1, DefaultCSMAConfig(), rng.New(2))
	_ = NewCSMA(s, ch, cd, 2, DefaultCSMAConfig(), rng.New(3))

	var order []packet.NodeID
	ch.Deliver = func(to int, p *packet.Packet) {
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
		s, ch, cd := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}, {X: 10, Y: 10}})
		m0 := NewCSMA(s, ch, cd, 0, DefaultCSMAConfig(), rng.New(seed*3+1))
		m1 := NewCSMA(s, ch, cd, 1, DefaultCSMAConfig(), rng.New(seed*3+2))
		m2 := NewCSMA(s, ch, cd, 2, DefaultCSMAConfig(), rng.New(seed*3+3))
		var got int
		ch.Deliver = func(to int, p *packet.Packet) {
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
	s, ch, cd := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	m0 := NewCSMA(s, ch, cd, 0, DefaultCSMAConfig(), rng.New(1))
	_ = NewCSMA(s, ch, cd, 1, DefaultCSMAConfig(), rng.New(2))
	got := receivedAt(ch, 1)
	for i := 1; i <= 3; i++ {
		p := hello(0)
		p.Size = i * 10
		m0.Send(p)
	}
	if m0.QueueLen() != 3 { // head is dequeued only when it hits the air
		t.Errorf("queue length = %d, want 3", m0.QueueLen())
	}
	s.Run()
	if sizes := *got; len(sizes) != 3 || sizes[0] != 10 || sizes[1] != 20 || sizes[2] != 30 {
		t.Errorf("delivery order = %v", sizes)
	}
}

func TestCSMAQueueOverflowDrops(t *testing.T) {
	s, ch, cd := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	cfg := DefaultCSMAConfig()
	cfg.MaxQueue = 2
	m0 := NewCSMA(s, ch, cd, 0, cfg, rng.New(1))
	_ = NewCSMA(s, ch, cd, 1, cfg, rng.New(2))
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
	s, ch, _ := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	m0 := NewIdeal(s, ch, 0)
	_ = NewIdeal(s, ch, 1)
	got := receivedAt(ch, 1)
	m0.Send(hello(0))
	m0.Send(hello(0))
	s.Run()
	if len(*got) != 2 {
		t.Fatalf("deliveries = %d, want 2 (back-to-back, no self-overlap)", len(*got))
	}
}

func TestIdealIgnoresCarrier(t *testing.T) {
	// Two ideal MACs transmitting simultaneously collide at the receiver —
	// Ideal does not carrier-sense. This is the documented contract.
	s, ch, _ := rig([]geom.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 60, Y: 0}})
	m0 := NewIdeal(s, ch, 0)
	m2 := NewIdeal(s, ch, 2)
	var got int
	ch.Deliver = func(to int, p *packet.Packet) {
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
	s, ch, cd := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	m0 := NewCSMA(s, ch, cd, 0, DefaultCSMAConfig(), rng.New(1))
	m1 := NewCSMA(s, ch, cd, 1, DefaultCSMAConfig(), rng.New(2))
	got0 := receivedAt(ch, 0)
	m1.Send(hello(1))
	s.After(5*sim.Microsecond, func() { m0.Send(hello(0)) })
	s.Run()
	if len(*got0) != 1 {
		t.Errorf("node 0 received %d frames, want 1", len(*got0))
	}
}

// TestCSMAAdoptIdle: a reset MAC adopting an idle one takes its drop
// count and its random stream, and a MAC with a frame in contention
// cannot be adopted.
func TestCSMAAdoptIdle(t *testing.T) {
	s, ch, cd := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	cfg := DefaultCSMAConfig()
	cfg.MaxQueue = 2
	src := NewCSMA(s, ch, cd, 0, cfg, rng.New(1))
	other := NewCSMA(s, ch, cd, 1, cfg, rng.New(2))
	for i := 0; i < 5; i++ {
		src.Send(hello(0))
		other.Send(hello(1))
	}
	s.Run()
	if src.Dropped == 0 || *src.rnd == *rng.New(1) {
		t.Fatalf("source dropped %d frames and drew no backoff; the test needs both", src.Dropped)
	}

	s2, ch2, cd2 := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	dst := NewCSMA(s2, ch2, cd2, 0, cfg, rng.New(3))
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

// txRec is one frame put on the air, with the simulator's counters at
// that moment.
type txRec struct {
	node      int
	at        sim.Time
	processed uint64
	entries   uint64
	pending   int
}

// watch records every transmission on ch.
func watch(s *sim.Simulator, ch *channel.Channel) *[]txRec {
	var recs []txRec
	ch.OnAir = func(from int, p *packet.Packet) {
		st := s.Stats()
		recs = append(recs, txRec{from, s.Now(), st.Processed, st.Entries, s.Pending()})
	}
	return &recs
}

// edge delivers a carrier edge to m at instant at, keyed 100 ns before
// it, as a neighbour's frame starting or ending is (propagation is far
// below a slot). check, if set, runs just before the edge lands. An edge
// costs two events and two queue entries.
func edge(s *sim.Simulator, m *CSMA, at sim.Time, busy bool, check func()) {
	s.At(at-100*sim.Nanosecond, func() {
		s.At(at, func() {
			if check != nil {
				check()
			}
			m.CarrierChanged(busy)
		})
	})
}

const us = sim.Microsecond

// TestCSMAOneTimerCountdown: an undisturbed n-slot countdown transmits
// DIFS + n slots after the medium went idle, in two queue entries (the
// pre-expiry and the expiry), while Processed counts the DIFS end and n
// slot ticks as the per-slot countdown ran them.
func TestCSMAOneTimerCountdown(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7} {
		s, ch, cd := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
		m := NewCSMA(s, ch, cd, 0, DefaultCSMAConfig(), rng.New(1))
		recs := watch(s, ch)
		m.slots = n
		m.Send(hello(0))
		s.Run()
		wantEntries := uint64(2)
		if n == 0 {
			wantEntries = 1 // DIFS, then straight on the air
		}
		want := txRec{0, 50*us + sim.Time(n)*20*us, uint64(1 + n), wantEntries, 0}
		if len(*recs) != 1 || (*recs)[0] != want {
			t.Errorf("%d slots: transmissions %+v, want [%+v]", n, *recs, want)
		}
	}
}

// TestCSMAFreezeBoundaries freezes a 5-slot countdown at each boundary
// the one-timer fold must get right. DIFS ends at 50 µs, the slot
// boundaries fall at 70, 90, 110 and 130 µs (the pre-expiry), and the
// countdown expires at 150 µs. A busy edge on a boundary spends that
// slot, since the per-slot tick there was keyed a slot earlier than the
// edge; the medium goes idle again 100 µs after the busy edge, and the
// remaining slots count down after a fresh DIFS. At the transmission,
// Processed counts every DIFS end and slot tick the per-slot countdown
// ran, plus the edges' events; Entries count the timers the fold used.
func TestCSMAFreezeBoundaries(t *testing.T) {
	cases := []struct {
		name      string
		busy      sim.Time
		left      int // slots left at the idle edge; -1: the frame went out first
		at        sim.Time
		processed uint64
		entries   uint64
	}{
		// Per-slot: DIFS cancelled; DIFS and 5 ticks after the idle edge.
		{"inside DIFS", 30 * us, 5, 280 * us, 0 + 6 + 4, 3 + 4},
		// Per-slot: the DIFS end ran before the edge; tick 70 cancelled.
		{"DIFS end", 50 * us, 5, 300 * us, 1 + 6 + 4, 3 + 4},
		// Per-slot: ticks 70 ran, 90 cancelled.
		{"before a boundary", 90*us - 1, 4, 320*us - 1, 2 + 5 + 4, 3 + 4},
		// Per-slot: ticks 70 and 90 ran, 110 cancelled.
		{"slot boundary", 90 * us, 3, 300 * us, 3 + 4 + 4, 3 + 4},
		// Per-slot: ticks through 130 ran, 150 cancelled. The fold had
		// scheduled its expiry and joined a group: it leaves both.
		{"pre-expiry", 130 * us, 1, 300 * us, 5 + 2 + 4, 4 + 4},
		// The expiry, keyed at 130 µs, runs before the edge keyed just
		// before 150 µs: the frame goes out, the edge finds it on the air.
		{"expiry", 150 * us, -1, 150 * us, 6 + 1, 2 + 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, ch, cd := rig([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
			m := NewCSMA(s, ch, cd, 0, DefaultCSMAConfig(), rng.New(1))
			recs := watch(s, ch)
			m.slots = 5
			m.Send(hello(0))
			edge(s, m, c.busy, true, nil)
			edge(s, m, c.busy+100*us, false, func() {
				if c.left >= 0 && (m.state != csmaDefer || m.slots != c.left) {
					t.Errorf("frozen: state %d, %d slots left; want deferring with %d", m.state, m.slots, c.left)
				}
				if len(cd.groups) != 0 {
					t.Errorf("frozen MAC still in %d countdown groups", len(cd.groups))
				}
			})
			s.Run()
			if len(*recs) != 1 {
				t.Fatalf("%d transmissions, want 1", len(*recs))
			}
			r := (*recs)[0]
			if r.at != c.at || r.processed != c.processed || r.entries != c.entries {
				t.Errorf("sent at %v with %d events in %d entries; want %v, %d events, %d entries",
					r.at, r.processed, r.entries, c.at, c.processed, c.entries)
			}
		})
	}
}

// groupRig builds CSMA MACs on nodes 0..n-1, all in range of each other,
// over one Countdowns; slots[i] is MAC i's backoff and sendAt[i] when
// its frame is queued (0: before the run, in index order; negative: not
// queued; otherwise by an event, which costs one event and one entry).
func groupRig(slots []int, sendAt []sim.Time) (*sim.Simulator, *Countdowns, []*CSMA, *[]txRec) {
	pos := make([]geom.Point, len(slots))
	for i := range pos {
		pos[i] = geom.Point{X: float64(5 * i)}
	}
	s, ch, cd := rig(pos)
	macs := make([]*CSMA, len(slots))
	for i := range macs {
		macs[i] = NewCSMA(s, ch, cd, i, DefaultCSMAConfig(), rng.New(uint64(i+1)))
		macs[i].slots = slots[i]
	}
	for i, m := range macs {
		if sendAt[i] < 0 {
			continue
		}
		if sendAt[i] == 0 {
			m.Send(hello(packet.NodeID(i)))
			continue
		}
		s.At(sendAt[i], func() { m.Send(hello(packet.NodeID(i))) })
	}
	return s, cd, macs, watch(s, ch)
}

// TestCSMASharedExpiry: countdowns that expire at the same nanosecond go
// on the air in the order the per-slot ticks ran them — the most
// recently started first, and among equal starts in the order their DIFS
// ended — at the first expiry of the instant. Processed and Pending at
// each transmission are the per-slot countdown's: each member's own tick
// runs (or is retired) just before its frame.
func TestCSMASharedExpiry(t *testing.T) {
	cases := []struct {
		name   string
		slots  []int
		sendAt []sim.Time
		at     sim.Time
		order  []int
		// Per transmission, in order: the events run; the queue entries
		// pushed — a pre-expiry and an expiry per member, the Send events,
		// and four per frame already sent (tx-end, tx-done and the two fan
		// cursors); and the events pending — the other members' ticks
		// still due, and each sent frame's tx-end, tx-done and
		// carrier/frame edges at the others.
		processed []uint64
		entries   []uint64
		pending   []int
	}{
		// Node 0 starts an 11-slot countdown at 50 µs, node 1 a 6-slot
		// one five slots later: both expire at 270 µs. Node 0's expiry
		// runs first (its pre-expiry was keyed first) but node 1 goes
		// first. Per-slot before node 1's frame: node 0's DIFS and 10
		// ticks, node 1's DIFS and 6 ticks, and the Send event.
		{"different starts", []int{11, 6}, []sim.Time{0, 100 * us}, 270 * us, []int{1, 0},
			[]uint64{11 + 7 + 1, 11 + 7 + 1 + 1}, []uint64{5, 5 + 4}, []int{1, 4}},
		{"equal starts", []int{4, 4}, []sim.Time{0, 0}, 130 * us, []int{0, 1},
			[]uint64{5 + 4, 5 + 5}, []uint64{4, 4 + 4}, []int{1, 4}},
		// Starts at 50, 110 and 170 µs, all expiring at 230 µs: the
		// oldest leads the instant and goes last.
		{"three starts", []int{9, 6, 3}, []sim.Time{0, 60 * us, 120 * us}, 230 * us, []int{2, 1, 0},
			[]uint64{9 + 6 + 4 + 2, 9 + 6 + 4 + 2 + 1, 9 + 6 + 4 + 2 + 2}, []uint64{8, 8 + 4, 8 + 8}, []int{2, 1 + 6, 6 + 6}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, cd, _, recs := groupRig(c.slots, c.sendAt)
			s.Run()
			if len(*recs) != len(c.order) {
				t.Fatalf("%d transmissions, want %d", len(*recs), len(c.order))
			}
			for k, r := range *recs {
				want := txRec{c.order[k], c.at, c.processed[k], c.entries[k], c.pending[k]}
				if r != want {
					t.Errorf("transmission %d: %+v, want %+v", k, r, want)
				}
			}
			if len(cd.groups) != 0 {
				t.Errorf("%d countdown groups left after the run", len(cd.groups))
			}
		})
	}
	// Equal starts keep their DIFS order, not their node order.
	s, _, macs, recs := groupRig([]int{4, 4}, []sim.Time{-1, -1})
	macs[1].Send(hello(1))
	macs[0].Send(hello(0))
	s.Run()
	if len(*recs) != 2 || (*recs)[0].node != 1 || (*recs)[1].node != 0 {
		t.Errorf("equal starts, node 1 queued first: order %+v, want nodes 1 then 0", *recs)
	}
}

// TestCSMAResetLeavesGroup: a Reset while the MAC is in its last slot
// unlinks it from its group, so the group's other member and the next
// run are unaffected; a MAC in a group cannot be adopted from.
func TestCSMAResetLeavesGroup(t *testing.T) {
	s, cd, macs, recs := groupRig([]int{11, 6}, []sim.Time{0, 100 * us})
	s.RunUntil(250 * us) // both pre-expiries have run: one group of two
	if len(cd.groups) != 1 || cd.groups[0] != macs[1] || macs[1].next != macs[0] {
		t.Fatalf("before reset: %d groups, want node 1 then node 0 in one", len(cd.groups))
	}
	_, _, dst, _ := groupRig([]int{-1}, []sim.Time{-1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AdoptIdle from a MAC in a countdown group did not panic")
			}
		}()
		dst[0].AdoptIdle(macs[0])
	}()
	s.Reset()
	macs[0].Reset(rng.New(1))
	if len(cd.groups) != 1 || cd.groups[0] != macs[1] || macs[1].next != nil || macs[1].prev != nil {
		t.Fatalf("after resetting node 0: %d groups, want node 1 alone", len(cd.groups))
	}
	macs[1].Reset(rng.New(2))
	if len(cd.groups) != 0 {
		t.Fatalf("after resetting both: %d groups left", len(cd.groups))
	}
	if len(*recs) != 0 {
		t.Fatalf("%d frames sent before the reset", len(*recs))
	}
	// The next run on the same groups: the shape again, from a clean
	// state.
	macs[0].slots, macs[1].slots = 11, 6
	macs[0].Send(hello(0))
	s.At(100*us, func() { macs[1].Send(hello(1)) })
	s.Run()
	if len(*recs) != 2 || (*recs)[0].node != 1 || (*recs)[1].node != 0 ||
		(*recs)[0].at != 270*us || (*recs)[0].processed != 19 || (*recs)[1].processed != 20 {
		t.Errorf("after reset: %+v, want nodes 1 then 0 at 270µs with 19 and 20 events", *recs)
	}
}

// TestCSMAAdoptIdleLeavesGroupIntact: a refused AdoptIdle from a MAC in
// a group leaves the group as it was: the frames go out as without it.
func TestCSMAAdoptIdleLeavesGroupIntact(t *testing.T) {
	s, _, macs, recs := groupRig([]int{11, 6}, []sim.Time{0, 100 * us})
	s.RunUntil(250 * us)
	_, _, dst, _ := groupRig([]int{-1}, []sim.Time{-1})
	func() {
		defer func() { _ = recover() }()
		dst[0].AdoptIdle(macs[1])
	}()
	s.Run()
	if len(*recs) != 2 || (*recs)[0].node != 1 || (*recs)[1].node != 0 || (*recs)[1].processed != 20 {
		t.Errorf("after a refused AdoptIdle: %+v, want nodes 1 then 0 with 19 and 20 events", *recs)
	}
}

// TestCSMAConfigNeedsDIFSAboveSlot: the group order assumes a DIFS
// longer than a slot, as in every 802.11 PHY.
func TestCSMAConfigNeedsDIFSAboveSlot(t *testing.T) {
	s, ch, cd := rig([]geom.Point{{X: 0, Y: 0}})
	cfg := DefaultCSMAConfig()
	cfg.DIFS = cfg.SlotTime
	defer func() {
		if recover() == nil {
			t.Error("NewCSMA accepted DIFS == SlotTime")
		}
	}()
	NewCSMA(s, ch, cd, 0, cfg, rng.New(1))
}
