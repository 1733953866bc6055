// Package neighbor implements the one-hop neighbor table of §IV.B: entries
// learned from periodic HELLO beacons, annotated with multicast group
// membership and HELLO counts. Entries are never aged out: a run's HELLO
// rounds fill the table once, and the fault and mobility studies drop dead
// routes through forwarder-flag expiry in internal/proto, not here.
//
// A node only ever hears its one-hop neighborhood (~25 nodes at the
// paper's density), so the table is one slice of entries kept sorted by
// id: a binary search finds an id's position, and iterating the slice
// visits the neighbours in ascending id order. What a node learns per
// session by overhearing (Definition 1's "covered" and "forwarder" marks)
// lives in internal/proto's session block, keyed by these positions; a
// position stays bound to its id because the table is frozen once the
// node has a session (proto rejects a HELLO from a new id after that).
//
// A HELLO reception only appends its sender to the table's log; the log
// is folded into the sorted entries ("sealed") by the first read, or by
// Seal at the end of the HELLO phase. In a large field a node's
// receptions arrive thousands of receptions apart, so a sorted insert on
// each would start with a cache miss on the entries; the seal touches
// each table once, while it is in cache.
//
// A session that knows how many HELLOs each node can decode gives every
// table its log up front (UseLog), carved from one arena, so filling the
// logs allocates nothing; a table that hears more outgrows its carve into
// an allocation of its own, as an uncarved log grows by append.
//
// Reset empties the table in place, keeping its storage for session
// reuse.
package neighbor

import (
	"slices"

	"mtmrp/internal/packet"
)

// Entry is one neighbor record, 16 bytes and pointer-free: a 10k-node
// deployment holds a quarter million of them.
type Entry struct {
	ID packet.NodeID
	// Count is the number of HELLOs heard from this neighbor — a crude
	// link-quality estimator: under fading, marginal links deliver only a
	// fraction of beacons.
	Count int32

	off, n int32 // announced memberships: Table.groups[off : off+n]
}

// groupHello is a logged HELLO that announced memberships: the sender,
// its position in the log, and the memberships carved into the arena.
type groupHello struct {
	id          packet.NodeID
	seq, off, n int32
}

// Table is a node's one-hop neighbor table: its entries in ascending id
// order, plus the log of HELLOs heard since the last seal. A Table must
// not be copied once used: a copy shares the original's storage, and
// writing through it (Observe, a seal, CopyFrom) panics.
type Table struct {
	self *Table          // the table's own address, bound by its first write
	log  []packet.NodeID // HELLO senders heard since the last seal, in arrival order
	glog []groupHello    // the logged HELLOs that announced memberships

	entries []Entry
	groups  []packet.GroupID // arena of the memberships
}

// own binds the table to its address on its first write and panics if
// t is a copy of a table that was already written.
func (t *Table) own() {
	if t.self != t {
		if t.self != nil {
			panic("neighbor: a Table was copied by value after use")
		}
		t.self = t
	}
}

// Reset empties the table in place, keeping all storage.
func (t *Table) Reset() {
	t.log = t.log[:0]
	t.glog = t.glog[:0]
	t.entries = t.entries[:0]
	t.groups = t.groups[:0]
}

// CopyFrom makes t a copy of src's entries: the same ids, HELLO counts
// and memberships at the same positions. src is sealed first.
func (t *Table) CopyFrom(src *Table) {
	src.Seal()
	t.own()
	t.Reset()
	t.entries = grow(t.entries, len(src.entries))
	copy(t.entries, src.entries)
	t.groups = append(t.groups, src.groups...)
}

// grow returns s resized to n elements, reallocating to exactly n if its
// capacity is short. Elements past the old length are unspecified.
func grow(s []Entry, n int) []Entry {
	if n <= cap(s) {
		return s[:n]
	}
	g := make([]Entry, n)
	copy(g, s)
	return g
}

// UseLog gives the table's HELLO log buf's storage: the log then takes
// cap(buf) HELLOs before an Observe moves it to an allocation of its own.
// buf must be capped (a full slice expression) where the caller's storage
// for this table ends, so that the log never writes past it. The log must
// be empty: the table is new, Reset or just sealed.
func (t *Table) UseLog(buf []packet.NodeID) {
	t.own()
	if len(t.log) > 0 {
		panic("neighbor: UseLog on a table with unsealed HELLOs")
	}
	t.log = buf[:0]
}

// Observe records a HELLO from id carrying the given group memberships.
// It only logs the HELLO; the next read or Seal folds it into the
// entries, with the same result as an insert-or-refresh here would have:
// the count goes up by one and the memberships become the HELLO's.
func (t *Table) Observe(id packet.NodeID, groups []packet.GroupID) {
	t.own()
	if len(groups) > 0 {
		off, n := t.carve(groups)
		t.glog = append(t.glog, groupHello{id: id, seq: int32(len(t.log)), off: off, n: n})
	}
	t.log = append(t.log, id)
}

// carve copies groups into the arena and returns where they are. The
// arena is append-only until Reset, so a carve may be shared: a set equal
// to the arena's tail (every member announces the same set in a run)
// reuses it.
func (t *Table) carve(groups []packet.GroupID) (off, n int32) {
	a := len(t.groups) - len(groups)
	if a < 0 || !slices.Equal(t.groups[a:], groups) {
		a = len(t.groups)
		t.groups = append(t.groups, groups...)
	}
	return int32(a), int32(len(groups))
}

// Seal folds the HELLO log into the entries. Every read seals; the
// session harness seals every table at the end of the HELLO phase, so
// the phase's cost and memory land there.
func (t *Table) Seal() {
	if len(t.log) > 0 {
		t.fold()
	}
}

// fold sorts the log and merges it into the entries from the back: the
// entries grow once, to their exact new size, and each logged id adds
// its HELLO count to its entry, or becomes a new entry. A logged id's
// memberships become those of its last HELLO.
func (t *Table) fold() {
	t.own()
	log := t.log
	// A group HELLO decides its sender's memberships unless a later
	// HELLO from the sender follows it. Keep the deciding ones before the
	// sort loses the arrival order.
	last := t.glog[:0]
	for _, h := range t.glog {
		if !slices.Contains(log[h.seq+1:], h.id) {
			last = append(last, h)
		}
	}
	slices.Sort(log)

	old, fresh := len(t.entries), 0
	for j, i := 0, 0; j < len(log); j++ {
		if j > 0 && log[j] == log[j-1] {
			continue
		}
		for i < old && t.entries[i].ID < log[j] {
			i++
		}
		if i == old || t.entries[i].ID != log[j] {
			fresh++
		}
	}
	t.entries = grow(t.entries, old+fresh)

	e := t.entries
	i, k := old-1, len(e)-1
	for j := len(log) - 1; j >= 0; k-- {
		id, c := log[j], int32(0)
		for ; j >= 0 && log[j] == id; j-- {
			c++
		}
		for ; i >= 0 && e[i].ID > id; i, k = i-1, k-1 {
			e[k] = e[i]
		}
		if i >= 0 && e[i].ID == id {
			e[k] = Entry{ID: id, Count: e[i].Count + c}
			i--
		} else {
			e[k] = Entry{ID: id, Count: c}
		}
	}
	for _, h := range last {
		x, _ := t.search(h.id)
		e[x].off, e[x].n = h.off, h.n
	}
	t.log = log[:0]
	t.glog = t.glog[:0]
}

// search returns the position of id among the entries and whether it is
// there; if not, the position is where id would be inserted. The table
// must be sealed.
func (t *Table) search(id packet.NodeID) (int, bool) {
	lo, hi := 0, len(t.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.entries[m].ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.entries) && t.entries[lo].ID == id
}

// Index returns the position of id's entry, or -1 if id has none.
// Positions are dense in [0, Len()); callers key per-neighbour session
// state by them, which holds while no new id is inserted.
func (t *Table) Index(id packet.NodeID) int {
	t.Seal()
	if i, ok := t.search(id); ok {
		return i
	}
	return -1
}

// Len returns the number of entries; At(i) for i in [0, Len()) visits
// every entry in ascending id order.
func (t *Table) Len() int {
	t.Seal()
	return len(t.entries)
}

// At returns the entry at position i.
func (t *Table) At(i int) *Entry {
	t.Seal()
	return &t.entries[i]
}

// InGroup reports whether the neighbor at position i announced
// membership of g in its last HELLO.
func (t *Table) InGroup(i int, g packet.GroupID) bool {
	t.Seal()
	e := &t.entries[i]
	return slices.Contains(t.groups[e.off:e.off+e.n], g)
}

// Reliable reports whether id has been heard in at least minCount HELLOs.
// minCount <= 0 accepts any sender, known or not.
func (t *Table) Reliable(id packet.NodeID, minCount int) bool {
	if minCount <= 0 {
		return true
	}
	t.Seal()
	i, ok := t.search(id)
	return ok && int(t.entries[i].Count) >= minCount
}

// MemberCount returns the number of neighbors that are members of the
// group — DODMRP's destination-driven signal.
func (t *Table) MemberCount(g packet.GroupID, exclude packet.NodeID) int {
	t.Seal()
	n := 0
	for _, e := range t.entries {
		if e.ID != exclude && slices.Contains(t.groups[e.off:e.off+e.n], g) {
			n++
		}
	}
	return n
}
