package neighbor

import (
	"math/rand"
	"testing"

	"mtmrp/internal/packet"
)

var key = packet.FloodKey{Source: 0, Group: 1, Seq: 1}

func TestObserveInsertAndRefresh(t *testing.T) {
	tb := NewTable()
	tb.Observe(3, []packet.GroupID{1})
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	e := tb.Entry(3)
	if e == nil || !e.InGroup(1) {
		t.Fatalf("entry = %+v", e)
	}
	// Refresh with changed membership: replaced wholesale.
	tb.Observe(3, []packet.GroupID{2})
	e = tb.Entry(3)
	if e.InGroup(1) || !e.InGroup(2) || e.Count != 2 {
		t.Errorf("refresh failed: %+v", e)
	}
}

func TestRelayProfitCountsUncoveredMembers(t *testing.T) {
	tb := NewTable()
	tb.Observe(1, []packet.GroupID{1})
	tb.Observe(2, []packet.GroupID{1})
	tb.Observe(3, []packet.GroupID{2}) // other group
	tb.Observe(4, nil)                 // non-member
	if got := tb.RelayProfit(key, packet.NoNode); got != 2 {
		t.Fatalf("RelayProfit = %d, want 2", got)
	}
	tb.MarkCovered(1, key)
	if got := tb.RelayProfit(key, packet.NoNode); got != 1 {
		t.Fatalf("after covering one: RelayProfit = %d, want 1", got)
	}
	// Coverage is per session: another session still counts both.
	key2 := packet.FloodKey{Source: 0, Group: 1, Seq: 2}
	if got := tb.RelayProfit(key2, packet.NoNode); got != 2 {
		t.Fatalf("other session RelayProfit = %d, want 2", got)
	}
}

func TestRelayProfitExcludesSourceAndExcluded(t *testing.T) {
	tb := NewTable()
	tb.Observe(0, []packet.GroupID{1}) // the session source
	tb.Observe(5, []packet.GroupID{1})
	if got := tb.RelayProfit(key, packet.NoNode); got != 1 {
		t.Errorf("source must not count: %d", got)
	}
	if got := tb.RelayProfit(key, 5); got != 0 {
		t.Errorf("excluded id must not count: %d", got)
	}
}

func TestMemberCount(t *testing.T) {
	tb := NewTable()
	tb.Observe(1, []packet.GroupID{1})
	tb.Observe(2, []packet.GroupID{1})
	tb.MarkCovered(1, key) // coverage is irrelevant to MemberCount
	if got := tb.MemberCount(1, packet.NoNode); got != 2 {
		t.Errorf("MemberCount = %d, want 2", got)
	}
	if got := tb.MemberCount(1, 2); got != 1 {
		t.Errorf("MemberCount excluding 2 = %d, want 1", got)
	}
}

func TestForwarderMarks(t *testing.T) {
	tb := NewTable()
	if tb.HasForwarder(key) {
		t.Error("empty table has no forwarders")
	}
	tb.MarkForwarder(7, key)
	if !tb.HasForwarder(key) {
		t.Error("forwarder mark not visible")
	}
	if !tb.Entry(7).Forwarder(key) {
		t.Error("entry flag not set")
	}
	// Session-scoped: a different session sees nothing.
	other := packet.FloodKey{Source: 0, Group: 1, Seq: 9}
	if tb.HasForwarder(other) {
		t.Error("forwarder mark leaked across sessions")
	}
}

func TestMarksCreateSkeletonEntries(t *testing.T) {
	tb := NewTable()
	tb.MarkCovered(9, key)
	e := tb.Entry(9)
	if e == nil || !e.Covered(key) {
		t.Fatalf("skeleton entry = %+v", e)
	}
	// A skeleton has no memberships until a HELLO arrives.
	if e.InGroup(1) {
		t.Error("skeleton should not claim membership")
	}
}

func TestHelloCountAndReliable(t *testing.T) {
	tb := NewTable()
	tb.Observe(1, nil)
	if !tb.Reliable(1, 1) {
		t.Error("one hello should satisfy minCount 1")
	}
	if tb.Reliable(1, 2) {
		t.Error("one hello should not satisfy minCount 2")
	}
	tb.Observe(1, nil)
	if !tb.Reliable(1, 2) {
		t.Error("two hellos should satisfy minCount 2")
	}
	if tb.Entry(1).Count != 2 {
		t.Errorf("Count = %d", tb.Entry(1).Count)
	}
	// Unknown senders are never reliable (minCount > 0)...
	if tb.Reliable(99, 1) {
		t.Error("unknown sender reliable")
	}
	// ...but minCount <= 0 disables the gate entirely.
	if !tb.Reliable(99, 0) {
		t.Error("gate disabled should accept anyone")
	}
}

func TestMarksDoNotInflateCount(t *testing.T) {
	tb := NewTable()
	tb.MarkForwarder(5, key)
	if tb.Reliable(5, 1) {
		t.Error("overhearing marks must not count as beacons")
	}
}

// TestEveryIterationSlotHoldsAnEntry pins the invariant that entries are
// never evicted: after any mix of Observe, Mark, Reset and CopyFrom, the
// table has one entry per iteration slot, At never returns nil, and
// iteration visits each entry once in ascending id order.
func TestEveryIterationSlotHoldsAnEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb, src := NewTable(), NewTable()
	for op := 0; op < 5000; op++ {
		id := packet.NodeID(rng.Intn(60))
		k := packet.FloodKey{Source: 0, Group: 1, Seq: uint32(rng.Intn(4))}
		switch rng.Intn(8) {
		case 0, 1:
			tb.Observe(id, []packet.GroupID{1})
		case 2:
			tb.MarkCovered(id, k)
		case 3:
			tb.MarkForwarder(id, k)
		case 4:
			src.Observe(id, nil)
		case 5:
			if rng.Intn(20) == 0 {
				tb.Reset()
			}
		case 6:
			if rng.Intn(20) == 0 {
				tb.CopyFrom(src)
			}
		case 7:
			if rng.Intn(40) == 0 {
				src.Reset()
			}
		}
		last := packet.NodeID(-1)
		for i := 0; i < tb.Len(); i++ {
			e := tb.At(i)
			if e == nil {
				t.Fatalf("op %d: At(%d) = nil", op, i)
			}
			if e.ID <= last || tb.Entry(e.ID) != e {
				t.Fatalf("op %d: At(%d) = id %d after id %d", op, i, e.ID, last)
			}
			last = e.ID
		}
	}
}
