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
// Reset empties the table in place, keeping its storage for session
// reuse.
package neighbor

import (
	"slices"

	"mtmrp/internal/packet"
)

// Entry is one neighbor record, 32 bytes: a 10k-node deployment holds a
// quarter million of them.
type Entry struct {
	ID packet.NodeID
	// Count is the number of HELLOs heard from this neighbor — a crude
	// link-quality estimator: under fading, marginal links deliver only a
	// fraction of beacons.
	Count int32

	groups []packet.GroupID // announced memberships (small; linear scan)
}

// InGroup reports whether the neighbor announced membership of g.
func (e *Entry) InGroup(g packet.GroupID) bool {
	for _, x := range e.groups {
		if x == g {
			return true
		}
	}
	return false
}

// Table is a node's one-hop neighbor table: its entries in ascending id
// order. The entries' membership slices are carved from one arena, so a
// reused table refills without allocating whatever order its neighbours
// are heard in.
type Table struct {
	entries []Entry
	groups  []packet.GroupID // arena of the entries' memberships
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// Reset empties the table in place, keeping all storage.
func (t *Table) Reset() {
	t.entries = t.entries[:0]
	t.groups = t.groups[:0]
}

// CopyFrom makes t a copy of src's entries: the same ids, HELLO counts
// and memberships at the same positions.
func (t *Table) CopyFrom(src *Table) {
	t.Reset()
	for i := range src.entries {
		se := &src.entries[i]
		t.entries = append(t.entries, Entry{ID: se.ID, Count: se.Count, groups: t.carve(se.groups)})
	}
}

// carve copies groups into the arena and returns the copy, capped so
// that an append to it cannot reach into the next entry's memberships.
func (t *Table) carve(groups []packet.GroupID) []packet.GroupID {
	if len(groups) == 0 {
		return nil
	}
	a := len(t.groups)
	t.groups = append(t.groups, groups...)
	return t.groups[a:len(t.groups):len(t.groups)]
}

// Observe records a HELLO from id carrying the given group memberships,
// inserting or refreshing the entry.
func (t *Table) Observe(id packet.NodeID, groups []packet.GroupID) {
	i, ok := t.search(id)
	if !ok {
		t.entries = slices.Insert(t.entries, i, Entry{ID: id})
	}
	e := &t.entries[i]
	e.Count++
	// Membership is replaced wholesale: HELLO carries the full set. It is
	// rewritten in place when it fits (every HELLO of a run announces the
	// same set) and carved anew otherwise.
	if len(groups) <= cap(e.groups) {
		e.groups = append(e.groups[:0], groups...)
	} else {
		e.groups = t.carve(groups)
	}
}

// search returns the position of id and whether it is there; if not, the
// position is where id would be inserted.
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
	if i, ok := t.search(id); ok {
		return i
	}
	return -1
}

// Len returns the number of entries; At(i) for i in [0, Len()) visits
// every entry in ascending id order.
func (t *Table) Len() int { return len(t.entries) }

// At returns the entry at position i.
func (t *Table) At(i int) *Entry { return &t.entries[i] }

// Reliable reports whether id has been heard in at least minCount HELLOs.
// minCount <= 0 accepts any sender, known or not.
func (t *Table) Reliable(id packet.NodeID, minCount int) bool {
	if minCount <= 0 {
		return true
	}
	i, ok := t.search(id)
	return ok && int(t.entries[i].Count) >= minCount
}

// MemberCount returns the number of neighbors that are members of the
// group — DODMRP's destination-driven signal.
func (t *Table) MemberCount(g packet.GroupID, exclude packet.NodeID) int {
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.ID != exclude && e.InGroup(g) {
			n++
		}
	}
	return n
}
