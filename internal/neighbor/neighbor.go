// Package neighbor implements the one-hop neighbor table of §IV.B: entries
// learned from periodic HELLO beacons, annotated with multicast group
// membership and HELLO counts, and the per-session overhearing marks
// ("covered receiver", "known forwarder") that MTMRP's RelayProfit and
// path handover scheme are built on. Entries are never aged out: a run's
// HELLO rounds fill the table once, and the fault and mobility studies
// drop dead routes through forwarder-flag expiry in internal/proto, not
// here.
//
// A node only ever hears its one-hop neighborhood (~25 nodes at the
// paper's density), so the table is sparse: entries live in 16-record
// slabs (pointer-stable — a *Entry handed out never moves), two of them
// for a typical neighborhood; an open-addressing index maps node id to
// slot, and a sorted slot list preserves the ascending-id iteration
// order the dense layout had.
//
// The per-session marks are word-packed bitsets keyed by a small session
// registry, one bit per *table slot* — not per global node id. Definition
// 1 only ever asks about a node's own neighborhood, and every mark target
// is (made) a table entry, so the slot index is a complete key: per-node
// mark state is O(density · sessions) where the id-indexed layout cost
// O(n) bits per session (O(n²) per deployment — the last whole-network
// term at 10k–100k-node scales). This is sound because a slot is bound
// to one id from its admission until Reset, which clears ids and marks
// together — exactly the id-indexed semantics. The retained id-indexed
// implementation (marksref.go) pins that equivalence under randomized
// differential tests.
//
// Everything resets in place for session reuse; Reset also trims the mark
// registry's storage back to what the finished run actually used, so a
// pooled table cannot retain a high-water session count forever.
package neighbor

import (
	"sort"

	"mtmrp/internal/bitset"
	"mtmrp/internal/packet"
	"mtmrp/internal/sparse"
)

// Entry is one neighbor record.
type Entry struct {
	ID packet.NodeID
	// Count is the number of HELLOs heard from this neighbor — a crude
	// link-quality estimator: under fading, marginal links deliver only a
	// fraction of beacons.
	Count int

	groups []packet.GroupID // announced memberships (small; linear scan)
	slot   int32            // storage slot — the per-session mark bit for this entry
	t      *Table
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

// Covered reports the per-session covered mark.
func (e *Entry) Covered(key packet.FloodKey) bool {
	got := false
	if s := e.t.session(key); s >= 0 {
		got = e.t.covered[s].Test(int(e.slot))
	}
	if r := e.t.ref; r != nil {
		r.check("Covered", e.ID, key, got, r.Covered(e.ID, key))
	}
	return got
}

// Forwarder reports the per-session forwarder mark.
func (e *Entry) Forwarder(key packet.FloodKey) bool {
	got := false
	if s := e.t.session(key); s >= 0 {
		got = e.t.forwarder[s].Test(int(e.slot))
	}
	if r := e.t.ref; r != nil {
		r.check("Forwarder", e.ID, key, got, r.Forwarder(e.ID, key))
	}
	return got
}

// slabBits sizes the entry slabs: 16 records, so the ~25 neighbours of a
// node at the paper's density fill two slabs and leave at most 15
// records unused. A slab is a whole allocation; at 10k-node scales the
// unused records of larger slabs dominate the neighbour tables' heap.
const slabBits = 4

// Table is a node's one-hop neighbor table. Entries live in fixed slabs in
// insertion order (stable addresses), reached through an id index and a
// slot list sorted by id; the per-session covered/forwarder marks live in
// slot-indexed bitsets shared across entries, keyed by a small registry of
// session keys (a handful per run, scanned linearly).
type Table struct {
	slabs  []*[1 << slabBits]Entry
	nslots int        // slots handed out; slot s lives at slabs[s>>slabBits][s&mask]
	order  []int32    // slots sorted by entry id — ascending-id iteration
	idx    sparse.Map // node id -> slot

	sessions  []packet.FloodKey
	covered   []bitset.Set // covered[session] bit slot — covered receiver marks
	forwarder []bitset.Set // forwarder[session] bit slot — known-forwarder marks

	// ref, when attached by Shadow, mirrors every mark mutation into the
	// retained id-indexed implementation and cross-checks every read —
	// the differential-test hook (nil outside tests; one branch per op).
	ref *RefMarks
}

// at returns the entry in storage slot s.
func (t *Table) at(s int32) *Entry {
	return &t.slabs[s>>slabBits][s&(1<<slabBits-1)]
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// Reset empties the table in place — entries, id index, session registry
// and mark bitsets — keeping all storage. Mark-registry storage beyond a
// small multiple of the finished run's session count is released: such
// bitsets are leftovers of some earlier, much busier run (a refresh-heavy
// sweep cell, say) and would otherwise stay live in a pooled session
// forever.
func (t *Table) Reset() {
	for s := int32(0); s < int32(t.nslots); s++ {
		e := t.at(s)
		e.Count = 0
		e.groups = e.groups[:0]
	}
	t.nslots = 0
	t.order = t.order[:0]
	t.idx.Reset()
	// Trim with hysteresis, not to the exact count: session counts jitter
	// per node from run to run (a node reached by one seed's flood may be
	// missed by the next), and trimming to the exact count would make the
	// pool re-allocate that jitter every cycle. Anything beyond the bound
	// is a genuine high-water leftover and is released.
	keep := 2*len(t.sessions) + 4
	if len(t.covered) > keep {
		for i := keep; i < len(t.covered); i++ {
			t.covered[i] = bitset.Set{}
			t.forwarder[i] = bitset.Set{}
		}
		t.covered = t.covered[:keep]
		t.forwarder = t.forwarder[:keep]
	}
	for i := range t.covered {
		t.covered[i].Reset()
		t.forwarder[i].Reset()
	}
	t.sessions = t.sessions[:0]
	if t.ref != nil {
		t.ref.Reset()
	}
}

// CopyFrom makes t a copy of src's entries: the same ids, HELLO counts
// and memberships, bound to the same slots in the same iteration order,
// so any marks set later land on the bits they would in src. It panics
// if src holds marks; a table is copied between its HELLO phase and the
// first discovery.
func (t *Table) CopyFrom(src *Table) {
	if len(src.sessions) > 0 {
		panic("neighbor: CopyFrom a table with session marks")
	}
	t.Reset()
	for len(t.slabs)<<slabBits < src.nslots {
		t.slabs = append(t.slabs, new([1 << slabBits]Entry))
	}
	for s := int32(0); s < int32(src.nslots); s++ {
		se, e := src.at(s), t.at(s)
		e.ID = se.ID
		e.Count = se.Count
		e.groups = append(e.groups[:0], se.groups...)
		e.slot = s
		e.t = t
	}
	t.nslots = src.nslots
	t.order = append(t.order[:0], src.order...)
	t.idx.CopyFrom(&src.idx)
}

// session returns the registry index of key, or -1.
func (t *Table) session(key packet.FloodKey) int {
	for i, k := range t.sessions {
		if k == key {
			return i
		}
	}
	return -1
}

// ensureSession returns the registry index of key, registering it if new.
// Mark bitsets still present beyond the registry length are leftovers of
// the current run's own ensureSession growth and are already cleared, so
// they are reused as-is.
func (t *Table) ensureSession(key packet.FloodKey) int {
	if s := t.session(key); s >= 0 {
		return s
	}
	t.sessions = append(t.sessions, key)
	if len(t.covered) < len(t.sessions) {
		t.covered = append(t.covered, bitset.Set{})
		t.forwarder = append(t.forwarder, bitset.Set{})
	}
	return len(t.sessions) - 1
}

// Sessions returns the number of session keys currently registered.
func (t *Table) Sessions() int { return len(t.sessions) }

// MarkWords returns the total bitset words retained by the mark registry —
// the quantity the Reset trim bounds, exposed for the regression tests.
func (t *Table) MarkWords() int {
	n := 0
	for i := range t.covered {
		n += t.covered[i].Words() + t.forwarder[i].Words()
	}
	return n
}

// Observe records a HELLO from id carrying the given group memberships,
// inserting or refreshing the entry.
func (t *Table) Observe(id packet.NodeID, groups []packet.GroupID) {
	e := t.ensure(id)
	e.Count++
	// Membership is replaced wholesale: HELLO carries the full set.
	e.groups = append(e.groups[:0], groups...)
}

// Entry returns the record for id, or nil.
func (t *Table) Entry(id packet.NodeID) *Entry {
	s, ok := t.idx.Get(uint64(uint32(id)))
	if !ok {
		return nil
	}
	return t.at(s)
}

// Len returns the number of entries; At(i) for i in [0, Len()) visits
// every entry in ascending id order. Together they replace map iteration
// without allocating an id slice.
func (t *Table) Len() int { return t.nslots }

// At returns the entry in iteration slot i.
func (t *Table) At(i int) *Entry { return t.at(t.order[i]) }

// MarkCovered marks neighbor id as a covered receiver for the session.
// Unknown neighbors get a skeleton entry (we clearly can hear them).
func (t *Table) MarkCovered(id packet.NodeID, key packet.FloodKey) {
	e := t.ensure(id)
	t.covered[t.ensureSession(key)].Set(int(e.slot))
	if t.ref != nil {
		t.ref.MarkCovered(id, key)
	}
}

// MarkForwarder marks neighbor id as a known forwarder for the session.
func (t *Table) MarkForwarder(id packet.NodeID, key packet.FloodKey) {
	e := t.ensure(id)
	t.forwarder[t.ensureSession(key)].Set(int(e.slot))
	if t.ref != nil {
		t.ref.MarkForwarder(id, key)
	}
}

func (t *Table) ensure(id packet.NodeID) *Entry {
	s, ok := t.idx.Get(uint64(uint32(id)))
	if !ok {
		// New id: take the next slot, splice it into the sorted iteration
		// order, register it.
		s = int32(t.nslots)
		t.nslots++
		if int(s)>>slabBits >= len(t.slabs) {
			t.slabs = append(t.slabs, new([1 << slabBits]Entry))
		}
		e := t.at(s)
		e.ID = id
		e.slot = s
		e.t = t
		i := sort.Search(len(t.order), func(i int) bool {
			return t.at(t.order[i]).ID >= id
		})
		t.order = append(t.order, 0)
		copy(t.order[i+1:], t.order[i:])
		t.order[i] = s
		t.idx.Put(uint64(uint32(id)), s)
	}
	return t.at(s)
}

// Reliable reports whether id has been heard in at least minCount HELLOs.
// minCount <= 0 accepts any sender, known or not.
func (t *Table) Reliable(id packet.NodeID, minCount int) bool {
	if minCount <= 0 {
		return true
	}
	e := t.Entry(id)
	return e != nil && e.Count >= minCount
}

// HasForwarder reports whether any neighbor is a known forwarder for the
// session — the test driving both halves of the path handover scheme.
func (t *Table) HasForwarder(key packet.FloodKey) bool {
	s := t.session(key)
	got := s >= 0 && t.forwarder[s].Count() > 0
	if t.ref != nil {
		t.ref.check("HasForwarder", packet.NoNode, key, got, t.ref.HasForwarder(key))
	}
	return got
}

// RelayProfit returns the number of neighbors that are members of the
// session's group and not yet covered (Definition 1). exclude removes the
// querying node's own upstream/source id from consideration when needed
// (pass packet.NoNode for none).
func (t *Table) RelayProfit(key packet.FloodKey, exclude packet.NodeID) int {
	s := t.session(key)
	n := 0
	for _, o := range t.order {
		e := t.at(o)
		if e.ID == exclude || e.ID == key.Source {
			continue
		}
		cov := s >= 0 && t.covered[s].Test(int(e.slot))
		if t.ref != nil {
			t.ref.check("RelayProfit/covered", e.ID, key, cov, t.ref.Covered(e.ID, key))
		}
		if e.InGroup(key.Group) && !cov {
			n++
		}
	}
	return n
}

// MemberCount returns the number of neighbors that are members of the
// group, ignoring coverage — DODMRP's destination-driven signal.
func (t *Table) MemberCount(g packet.GroupID, exclude packet.NodeID) int {
	n := 0
	for _, o := range t.order {
		e := t.at(o)
		if e.ID == exclude {
			continue
		}
		if e.InGroup(g) {
			n++
		}
	}
	return n
}
