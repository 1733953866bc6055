package neighbor

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"mtmrp/internal/packet"
)

// groupsAt returns the memberships of the entry at position i.
func groupsAt(tb *Table, i int) []packet.GroupID {
	e := tb.At(i)
	return tb.groups[e.off : e.off+e.n]
}

// entry returns id's entry, or nil.
func entry(tb *Table, id packet.NodeID) *Entry {
	if i := tb.Index(id); i >= 0 {
		return tb.At(i)
	}
	return nil
}

// TestEntrySize pins the entry layout: ID, Count and the membership's
// place in the table's arena, 16 bytes and no pointer. A 10k-node
// deployment holds a quarter million entries.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 16 {
		t.Fatalf("Entry is %d bytes, want 16", got)
	}
}

func TestObserveInsertAndRefresh(t *testing.T) {
	tb := new(Table)
	tb.Observe(3, []packet.GroupID{1})
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	e := entry(tb, 3)
	if e == nil || !tb.InGroup(0, 1) {
		t.Fatalf("entry = %+v", e)
	}
	// Refresh with changed membership: replaced wholesale.
	tb.Observe(3, []packet.GroupID{2})
	e = entry(tb, 3)
	if tb.InGroup(0, 1) || !tb.InGroup(0, 2) || e.Count != 2 {
		t.Errorf("refresh failed: %+v", e)
	}
}

func TestMemberCount(t *testing.T) {
	tb := new(Table)
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
	tb := new(Table)
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
	tb, src := new(Table), new(Table)
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
		tb, src := new(Table), new(Table)
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
					if tb.InGroup(i, g) != slices.Contains(r.groups, g) {
						t.Fatalf("seed %d op %d: id %d InGroup(%d) = %v, last HELLO announced %v",
							seed, op, id, g, tb.InGroup(i, g), r.groups)
					}
				}
			}
		}
	}
}

// TestReuseKeepsMembershipStorage: a reset table refilled with the same
// neighbours in another arrival order, and sealed, allocates nothing: the
// log, the entries and the membership arena keep their storage.
func TestReuseKeepsMembershipStorage(t *testing.T) {
	tb := new(Table)
	fill := func(reverse bool) {
		tb.Reset()
		for k := 0; k < 30; k++ {
			id := packet.NodeID(k)
			if reverse {
				id = 29 - id
			}
			tb.Observe(id, []packet.GroupID{1})
		}
		tb.Seal()
	}
	fill(false)
	fill(true)
	flip := false
	if n := testing.AllocsPerRun(20, func() { flip = !flip; fill(flip) }); n != 0 {
		t.Fatalf("refilling a reset table allocated %.1f objects/op, want 0", n)
	}
}

// eagerTable is the reference the sealed table is held to: the sorted
// insert-or-refresh each HELLO used to do on reception. It keeps each
// entry's memberships in a slice of its own.
type eagerTable struct {
	ids    []packet.NodeID
	counts []int32
	groups [][]packet.GroupID
}

func (r *eagerTable) observe(id packet.NodeID, groups []packet.GroupID) {
	i, ok := slices.BinarySearch(r.ids, id)
	if !ok {
		r.ids = slices.Insert(r.ids, i, id)
		r.counts = slices.Insert(r.counts, i, 0)
		r.groups = slices.Insert(r.groups, i, nil)
	}
	r.counts[i]++
	r.groups[i] = slices.Clone(groups)
}

func (r *eagerTable) reset() { *r = eagerTable{} }

func (r *eagerTable) copyFrom(src *eagerTable) {
	r.ids = slices.Clone(src.ids)
	r.counts = slices.Clone(src.counts)
	r.groups = slices.Clone(src.groups)
}

// TestSealedTableMatchesEagerReference is the differential test of the
// HELLO log: random interleavings of Observe (with and without groups,
// memberships that change from one HELLO to the next, ids repeated many
// times), every read, CopyFrom of a source with an unsealed log, and
// Reset in the middle of a fill run against the eager reference. After
// every read the table must hold the reference's ids, counts and
// memberships at the same positions. Ids are drawn from a small range,
// with the int32 extremes, so logs of a few HELLOs and logs of many fold
// into both empty and populated tables.
func TestSealedTableMatchesEagerReference(t *testing.T) {
	ids := []packet.NodeID{-1 << 31, 1<<31 - 1}
	for id := packet.NodeID(0); id < 24; id++ {
		ids = append(ids, id*5-40)
	}
	sets := [][]packet.GroupID{nil, {1}, {2}, {1, 2}, {3, 1, 2}}
	check := func(seed int64, op int, tb *Table, ref *eagerTable) {
		t.Helper()
		if tb.Len() != len(ref.ids) {
			t.Fatalf("seed %d op %d: Len = %d, reference holds %d", seed, op, tb.Len(), len(ref.ids))
		}
		for i, id := range ref.ids {
			e := tb.At(i)
			if e.ID != id || e.Count != ref.counts[i] || !slices.Equal(groupsAt(tb, i), ref.groups[i]) {
				t.Fatalf("seed %d op %d: position %d holds id %d count %d groups %v, reference id %d count %d groups %v",
					seed, op, i, e.ID, e.Count, groupsAt(tb, i), id, ref.counts[i], ref.groups[i])
			}
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tb, src Table
		var ref, srcRef eagerTable
		for op := 0; op < 6000; op++ {
			id := ids[rng.Intn(len(ids))]
			// Most HELLOs come in bursts of one sender's membership,
			// as in a run; some change it.
			groups := sets[int(uint32(id))%len(sets)]
			if rng.Intn(4) == 0 {
				groups = sets[rng.Intn(len(sets))]
			}
			switch k := rng.Intn(20); {
			case k < 9:
				tb.Observe(id, groups)
				ref.observe(id, groups)
			case k < 13:
				src.Observe(id, groups)
				srcRef.observe(id, groups)
			case k == 13:
				g := packet.GroupID(rng.Intn(4))
				x := ids[rng.Intn(len(ids))]
				want := 0
				for i, rid := range ref.ids {
					if rid != x && slices.Contains(ref.groups[i], g) {
						want++
					}
				}
				if got := tb.MemberCount(g, x); got != want {
					t.Fatalf("seed %d op %d: MemberCount(%d, %d) = %d, want %d", seed, op, g, x, got, want)
				}
			case k == 14:
				i, ok := slices.BinarySearch(ref.ids, id)
				if !ok {
					i = -1
				}
				if got := tb.Index(id); got != i {
					t.Fatalf("seed %d op %d: Index(%d) = %d, want %d", seed, op, id, got, i)
				}
			case k == 15:
				min := rng.Intn(5)
				i, ok := slices.BinarySearch(ref.ids, id)
				want := min <= 0 || ok && int(ref.counts[i]) >= min
				if got := tb.Reliable(id, min); got != want {
					t.Fatalf("seed %d op %d: Reliable(%d, %d) = %v, want %v", seed, op, id, min, got, want)
				}
			case k == 16:
				check(seed, op, &tb, &ref)
			case k == 17:
				if rng.Intn(4) == 0 {
					tb.CopyFrom(&src) // src's log is usually unsealed here
					ref.copyFrom(&srcRef)
					check(seed, op, &src, &srcRef)
				}
			case k == 18:
				if rng.Intn(6) == 0 {
					tb.Reset()
					ref.reset()
				}
			case k == 19:
				if rng.Intn(12) == 0 {
					src.Reset()
					srcRef.reset()
				}
			}
		}
		check(seed, -1, &tb, &ref)
	}
}

// TestCopiedTableRefusesWrites: a Table copied by value after use shares
// its original's log, entries and arena, so sealing or filling the copy
// would rewrite the original under it. Every write through such a copy
// panics, and the original stays intact.
func TestCopiedTableRefusesWrites(t *testing.T) {
	writes := map[string]func(*Table){
		"Observe":  func(c *Table) { c.Observe(9, nil) },
		"seal":     func(c *Table) { c.Len() },
		"CopyFrom": func(c *Table) { c.CopyFrom(new(Table)) },
	}
	for name, write := range writes {
		var tb Table
		for _, id := range []packet.NodeID{5, 3, 5, 8} {
			tb.Observe(id, []packet.GroupID{1})
		}
		cp := tb
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s through a copied table did not panic", name)
				}
			}()
			write(&cp)
		}()
		if tb.Len() != 3 || tb.At(tb.Index(5)).Count != 2 || !tb.InGroup(tb.Index(8), 1) {
			t.Errorf("%s through a copy changed the original: %d entries", name, tb.Len())
		}
	}
}
