package neighbor

import (
	"math/rand"
	"testing"

	"mtmrp/internal/packet"
)

// TestDifferentialSlotMarksVsIDMarks drives a shadowed table through long
// randomized op scripts — observe, mark, read, reset — so every
// slot-indexed mark read is cross-checked against the retained id-indexed
// reference (marksref.go), which panics on the first divergence. Resets
// rebind slots to other ids, so a slot's marks must not outlive its id.
func TestDifferentialSlotMarksVsIDMarks(t *testing.T) {
	const (
		ids      = 40 // small universe → every id is marked many times
		sessions = 6
		ops      = 30000
	)
	keys := make([]packet.FloodKey, sessions)
	for i := range keys {
		keys[i] = packet.FloodKey{Source: packet.NodeID(i % 3), Group: 1, Seq: uint32(i)}
	}
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		tb.Shadow()
		for op := 0; op < ops; op++ {
			id := packet.NodeID(rng.Intn(ids))
			key := keys[rng.Intn(sessions)]
			switch rng.Intn(9) {
			case 0, 1:
				tb.Observe(id, []packet.GroupID{1})
			case 2:
				tb.MarkCovered(id, key)
			case 3:
				tb.MarkForwarder(id, key)
			case 4:
				if e := tb.Entry(id); e != nil {
					e.Covered(key)
					e.Forwarder(key)
				}
			case 5:
				tb.RelayProfit(key, packet.NoNode)
			case 6:
				tb.HasForwarder(key)
			case 7:
				// Read every entry's marks for every session — the dense
				// cross-check the random single reads might miss.
				for i := 0; i < tb.Len(); i++ {
					e := tb.At(i)
					for _, k := range keys {
						e.Covered(k)
						e.Forwarder(k)
					}
				}
			case 8:
				if rng.Intn(50) == 0 {
					tb.Reset()
				}
			}
		}
	}
}

// TestResetTrimsMarkStorage pins satellite behavior of Reset: a pooled
// table that once registered a large session set releases the excess mark
// bitsets on Reset (down to a small multiple of current use), while
// modest run-to-run jitter keeps its storage — the steady-state 0-alloc
// contract.
func TestResetTrimsMarkStorage(t *testing.T) {
	tb := NewTable()
	tb.Observe(1, nil)
	// A busy run: 100 sessions with marks.
	for i := 0; i < 100; i++ {
		k := packet.FloodKey{Source: 0, Group: 1, Seq: uint32(i)}
		tb.MarkCovered(1, k)
	}
	if tb.Sessions() != 100 {
		t.Fatalf("Sessions = %d, want 100", tb.Sessions())
	}
	busyWords := tb.MarkWords()
	tb.Reset()

	// A quiet run: 2 sessions. Its Reset must release the high-water
	// leftovers (bound: 2*used+4 session rows).
	tb.Observe(1, nil)
	for i := 0; i < 2; i++ {
		k := packet.FloodKey{Source: 0, Group: 1, Seq: uint32(i)}
		tb.MarkCovered(1, k)
	}
	tb.Reset()
	if w := tb.MarkWords(); w >= busyWords || w > 8 {
		t.Fatalf("MarkWords = %d after quiet Reset (busy run held %d); trim failed", w, busyWords)
	}

	// Jitter within the hysteresis band must NOT release storage: refill 2
	// sessions, reset, refill — no allocation.
	refill := func() {
		for i := 0; i < 2; i++ {
			k := packet.FloodKey{Source: 0, Group: 1, Seq: uint32(i)}
			tb.MarkCovered(1, k)
		}
	}
	refill()
	tb.Reset()
	refill()
	allocs := testing.AllocsPerRun(10, func() {
		tb.Reset()
		refill()
	})
	if allocs != 0 {
		t.Fatalf("steady reset+refill allocated %.1f objects/op, want 0", allocs)
	}
}

// TestShadowDetectsDivergence makes sure the oracle is actually armed: a
// deliberately corrupted slot mark must trip the cross-check panic.
func TestShadowDetectsDivergence(t *testing.T) {
	key := packet.FloodKey{Source: 0, Group: 1, Seq: 1}
	tb := NewTable()
	tb.Shadow()
	tb.Observe(3, []packet.GroupID{1})
	tb.MarkCovered(3, key)
	e := tb.Entry(3)
	// Corrupt the live layout behind the oracle's back.
	tb.covered[tb.session(key)].Clear(int(e.slot))
	defer func() {
		if recover() == nil {
			t.Fatal("shadowed read of corrupted mark did not panic")
		}
	}()
	e.Covered(key)
}
