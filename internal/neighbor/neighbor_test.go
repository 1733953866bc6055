package neighbor

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"mtmrp/internal/packet"
)

// entry returns id's entry, or nil.
func entry(tb *Table, id packet.NodeID) *Entry {
	if i := tb.Index(id); i >= 0 {
		return tb.At(i)
	}
	return nil
}

// TestEntrySize pins the entry layout: ID, Count and the membership
// slice, 32 bytes on a 64-bit platform. A 10k-node deployment holds a
// quarter million entries.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 32 {
		t.Fatalf("Entry is %d bytes, want 32", got)
	}
}

func TestObserveInsertAndRefresh(t *testing.T) {
	tb := NewTable()
	tb.Observe(3, []packet.GroupID{1})
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	e := entry(tb, 3)
	if e == nil || !e.InGroup(1) {
		t.Fatalf("entry = %+v", e)
	}
	// Refresh with changed membership: replaced wholesale.
	tb.Observe(3, []packet.GroupID{2})
	e = entry(tb, 3)
	if e.InGroup(1) || !e.InGroup(2) || e.Count != 2 {
		t.Errorf("refresh failed: %+v", e)
	}
}

func TestMemberCount(t *testing.T) {
	tb := NewTable()
	tb.Observe(1, []packet.GroupID{1})
	tb.Observe(2, []packet.GroupID{1})
	if got := tb.MemberCount(1, packet.NoNode); got != 2 {
		t.Errorf("MemberCount = %d, want 2", got)
	}
	if got := tb.MemberCount(1, 2); got != 1 {
		t.Errorf("MemberCount excluding 2 = %d, want 1", got)
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
	if entry(tb, 1).Count != 2 {
		t.Errorf("Count = %d", entry(tb, 1).Count)
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

// TestEveryIterationSlotHoldsAnEntry pins the invariant that entries are
// never evicted: after any mix of Observe, Reset and CopyFrom, the table
// has one entry per position, and iteration visits each entry once in
// ascending id order.
func TestEveryIterationSlotHoldsAnEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb, src := NewTable(), NewTable()
	for op := 0; op < 5000; op++ {
		id := packet.NodeID(rng.Intn(60))
		switch rng.Intn(6) {
		case 0, 1:
			tb.Observe(id, []packet.GroupID{1})
		case 2:
			src.Observe(id, nil)
		case 3:
			if rng.Intn(20) == 0 {
				tb.Reset()
			}
		case 4:
			if rng.Intn(20) == 0 {
				tb.CopyFrom(src)
			}
		case 5:
			if rng.Intn(40) == 0 {
				src.Reset()
			}
		}
		last := packet.NodeID(-1)
		for i := 0; i < tb.Len(); i++ {
			e := tb.At(i)
			if e.ID <= last || tb.Index(e.ID) != i {
				t.Fatalf("op %d: At(%d) = id %d after id %d", op, i, e.ID, last)
			}
			last = e.ID
		}
	}
}

// TestSortedIndexMatchesMap is the differential test of the sorted
// table: random scripts of Observe, Reset and CopyFrom run against a
// table and a Go-map model of it, and after every operation Index, At and
// each entry's count and membership must agree with the model for every
// id of the universe — including ids far apart and at the int32
// extremes, so the binary search meets gaps and both ends. HELLOs carry
// zero to two groups, so a membership rewritten in place that spills
// into another entry's, or a slice shared by two entries, shows up as a
// wrong InGroup.
func TestSortedIndexMatchesMap(t *testing.T) {
	type rec struct {
		count  int32
		groups []packet.GroupID // the groups of the last HELLO
	}
	universe := []packet.NodeID{-1 << 31, -7, 1<<31 - 1, 1 << 20, 1<<20 + 1}
	for id := packet.NodeID(0); id < 48; id++ {
		universe = append(universe, id*3)
	}
	observe := func(m map[packet.NodeID]rec, id packet.NodeID, groups []packet.GroupID) {
		r := m[id]
		r.count++
		r.groups = groups
		m[id] = r
	}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		tb, src := NewTable(), NewTable()
		md, ms := map[packet.NodeID]rec{}, map[packet.NodeID]rec{}
		for op := 0; op < 4000; op++ {
			id := universe[rng.Intn(len(universe))]
			var groups []packet.GroupID
			for g := packet.GroupID(0); g < 3; g++ {
				if rng.Intn(3) == 0 {
					groups = append(groups, g)
				}
			}
			switch rng.Intn(8) {
			case 0, 1, 2:
				tb.Observe(id, groups)
				observe(md, id, groups)
			case 3, 4:
				src.Observe(id, groups)
				observe(ms, id, groups)
			case 5:
				if rng.Intn(15) == 0 {
					tb.Reset()
					md = map[packet.NodeID]rec{}
				}
			case 6:
				if rng.Intn(15) == 0 {
					tb.CopyFrom(src)
					md = maps.Clone(ms)
				}
			case 7:
				if rng.Intn(30) == 0 {
					src.Reset()
					ms = map[packet.NodeID]rec{}
				}
			}
			if tb.Len() != len(md) {
				t.Fatalf("seed %d op %d: Len = %d, model holds %d", seed, op, tb.Len(), len(md))
			}
			for _, id := range universe {
				r, ok := md[id]
				i := tb.Index(id)
				if !ok {
					if i != -1 {
						t.Fatalf("seed %d op %d: absent id %d at position %d", seed, op, id, i)
					}
					continue
				}
				want := 0
				for other := range md {
					if other < id {
						want++
					}
				}
				if i != want {
					t.Fatalf("seed %d op %d: id %d at position %d, want %d", seed, op, id, i, want)
				}
				e := tb.At(i)
				if e.ID != id || e.Count != r.count {
					t.Fatalf("seed %d op %d: id %d: entry %+v, want count %d", seed, op, id, e, r.count)
				}
				for g := packet.GroupID(0); g < 3; g++ {
					if e.InGroup(g) != slices.Contains(r.groups, g) {
						t.Fatalf("seed %d op %d: id %d InGroup(%d) = %v, last HELLO announced %v",
							seed, op, id, g, e.InGroup(g), r.groups)
					}
				}
			}
		}
	}
}

// TestReuseKeepsMembershipStorage: a reset table refilled with the same
// neighbours in another arrival order allocates nothing — each insert
// rotates a spare entry, with its membership slice, into place.
func TestReuseKeepsMembershipStorage(t *testing.T) {
	tb := NewTable()
	fill := func(reverse bool) {
		tb.Reset()
		for k := 0; k < 30; k++ {
			id := packet.NodeID(k)
			if reverse {
				id = 29 - id
			}
			tb.Observe(id, []packet.GroupID{1})
		}
	}
	fill(false)
	fill(true)
	flip := false
	if n := testing.AllocsPerRun(20, func() { flip = !flip; fill(flip) }); n != 0 {
		t.Fatalf("refilling a reset table allocated %.1f objects/op, want 0", n)
	}
}
