// marksref.go retains an id-indexed implementation of the per-session
// covered/forwarder marks as a differential oracle — the same pattern as
// internal/sim's refheap_test.go. One bitset per session keyed by global
// node id: simple, obviously correct against the paper's prose, and O(n)
// bits per node per session, which is why the session block keys its
// marks by neighbour-table position instead. Shadow attaches an oracle to
// a Base; from then on every mark mutation is mirrored here and every
// mark read is cross-checked against it, panicking on the first
// divergence.
package proto

import (
	"fmt"

	"mtmrp/internal/bitset"
	"mtmrp/internal/packet"
)

// RefMarks is the id-indexed reference implementation of the per-session
// covered/forwarder marks.
type RefMarks struct {
	sessions  []packet.FloodKey
	covered   []bitset.Set // covered[session] bit id
	forwarder []bitset.Set // forwarder[session] bit id
}

// Shadow attaches (and returns) the node's differential oracle, creating
// it on first call. Intended for tests: with a shadow attached, every mark
// written by overhearing and every Reset is mirrored into the id-indexed
// reference, and every mark read by RelayProfit and HasUphillForwarder is
// verified against it.
func (b *Base) Shadow() *RefMarks {
	if b.ref == nil {
		b.ref = &RefMarks{}
	}
	return b.ref
}

func (r *RefMarks) session(key packet.FloodKey) int {
	for i, k := range r.sessions {
		if k == key {
			return i
		}
	}
	return -1
}

func (r *RefMarks) ensureSession(key packet.FloodKey) int {
	if s := r.session(key); s >= 0 {
		return s
	}
	r.sessions = append(r.sessions, key)
	if len(r.covered) < len(r.sessions) {
		r.covered = append(r.covered, bitset.Set{})
		r.forwarder = append(r.forwarder, bitset.Set{})
	}
	return len(r.sessions) - 1
}

// MarkCovered marks id covered for the session.
func (r *RefMarks) MarkCovered(id packet.NodeID, key packet.FloodKey) {
	r.covered[r.ensureSession(key)].Set(int(id))
}

// MarkForwarder marks id as a known forwarder for the session.
func (r *RefMarks) MarkForwarder(id packet.NodeID, key packet.FloodKey) {
	r.forwarder[r.ensureSession(key)].Set(int(id))
}

// Covered reports the covered mark for id.
func (r *RefMarks) Covered(id packet.NodeID, key packet.FloodKey) bool {
	if s := r.session(key); s >= 0 {
		return r.covered[s].Test(int(id))
	}
	return false
}

// Forwarder reports the forwarder mark for id.
func (r *RefMarks) Forwarder(id packet.NodeID, key packet.FloodKey) bool {
	if s := r.session(key); s >= 0 {
		return r.forwarder[s].Test(int(id))
	}
	return false
}

// Reset empties the oracle, mirroring Base.Reset.
func (r *RefMarks) Reset() {
	for i := range r.covered {
		r.covered[i].Reset()
		r.forwarder[i].Reset()
	}
	r.sessions = r.sessions[:0]
}

// check panics on a divergence between the session block's
// position-indexed marks and the reference.
func (r *RefMarks) check(op string, id packet.NodeID, key packet.FloodKey, got, want bool) {
	if got != want {
		panic(fmt.Sprintf("proto: %s(id=%d, key=%+v) = %v, id-indexed reference says %v",
			op, id, key, got, want))
	}
}
