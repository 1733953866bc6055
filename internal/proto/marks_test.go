package proto

import (
	"math/rand"
	"testing"

	"mtmrp/internal/packet"
	"mtmrp/internal/sim"
)

var markKey = packet.FloodKey{Source: 0, Group: 1, Seq: 1}

// markBase returns an attached node whose neighbor table the test fills
// by hand; node ids of the table are independent of the rig's line.
func markBase(t *testing.T) *Base {
	t.Helper()
	_, bases := rig(t, 2, Hooks{QueryDelay: fixedDelay(sim.Millisecond), Overhear: true}, deterministicConfig())
	return bases[0]
}

// overhearFrom marks id as overhearing would: relayed for a relayed
// JoinReply (forwarder), otherwise an origination (covered).
func overhearFrom(t *testing.T, b *Base, key packet.FloodKey, id packet.NodeID, relayed bool) {
	t.Helper()
	i := b.NT.Index(id)
	if i < 0 {
		t.Fatalf("node %d has no table entry", id)
	}
	b.overhear(key, i, relayed)
}

// marks reads both marks of neighbor id for the session.
func marks(b *Base, key packet.FloodKey, id packet.NodeID) (covered, forwarder bool) {
	i := b.NT.Index(id)
	if i < 0 {
		return false, false
	}
	s := b.sess(key)
	return b.coveredAt(s, key, i), b.forwarderAt(s, key, i)
}

func TestRelayProfitCountsUncoveredMembers(t *testing.T) {
	b := markBase(t)
	b.NT.Observe(1, []packet.GroupID{1})
	b.NT.Observe(2, []packet.GroupID{1})
	b.NT.Observe(3, []packet.GroupID{2}) // other group
	b.NT.Observe(4, nil)                 // non-member
	if got := b.RelayProfit(markKey); got != 2 {
		t.Fatalf("RelayProfit = %d, want 2", got)
	}
	overhearFrom(t, b, markKey, 1, false)
	if got := b.RelayProfit(markKey); got != 1 {
		t.Fatalf("after covering one: RelayProfit = %d, want 1", got)
	}
	// Coverage is per session: another session still counts both.
	key2 := packet.FloodKey{Source: 0, Group: 1, Seq: 2}
	if got := b.RelayProfit(key2); got != 2 {
		t.Fatalf("other session RelayProfit = %d, want 2", got)
	}
}

func TestRelayProfitExcludesSource(t *testing.T) {
	b := markBase(t)
	b.NT.Observe(0, []packet.GroupID{1}) // the session source
	b.NT.Observe(5, []packet.GroupID{1})
	if got := b.RelayProfit(markKey); got != 1 {
		t.Errorf("source must not count: %d", got)
	}
}

func TestForwarderMarks(t *testing.T) {
	b := markBase(t)
	b.NT.Observe(7, nil)
	if _, fwd := marks(b, markKey, 7); fwd {
		t.Error("no session, no forwarders")
	}
	overhearFrom(t, b, markKey, 7, true)
	if cov, fwd := marks(b, markKey, 7); !fwd || cov {
		t.Errorf("after a relayed reply: covered %v forwarder %v, want false true", cov, fwd)
	}
	// Session-scoped: a different session sees nothing.
	other := packet.FloodKey{Source: 0, Group: 1, Seq: 9}
	if _, fwd := marks(b, other, 7); fwd {
		t.Error("forwarder mark leaked across sessions")
	}
}

func TestMarksDoNotInflateCount(t *testing.T) {
	b := markBase(t)
	b.NT.Observe(5, nil)
	overhearFrom(t, b, markKey, 5, true)
	overhearFrom(t, b, markKey, 5, false)
	if b.NT.Reliable(5, 2) || b.NT.At(b.NT.Index(5)).Count != 1 {
		t.Error("overhearing marks must not count as beacons")
	}
}

// TestHelloFromNewNeighborAfterSessionPanics pins the table freeze that
// position-keyed session state relies on: once a node has a session, a
// HELLO from a known neighbor still refreshes its entry, but one from a
// new id panics instead of shifting the positions.
func TestHelloFromNewNeighborAfterSessionPanics(t *testing.T) {
	net, bases := rig(t, 4, Hooks{QueryDelay: fixedDelay(sim.Millisecond), Overhear: true}, deterministicConfig())
	net.Nodes[3].JoinGroup(1)
	session(net, bases)
	b := bases[2]
	i := b.NT.Index(1)
	count := b.NT.At(i).Count
	b.Receive(packet.NewHello(1, nil))
	if got := b.NT.At(i).Count; got != count+1 {
		t.Fatalf("HELLO from a known neighbor: Count %d, want %d", got, count+1)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("HELLO from a new neighbor after the first session did not panic")
		}
	}()
	b.Receive(packet.NewHello(0, nil))
}

// TestDifferentialSlotMarksVsIDMarks drives a shadowed node through long
// randomized scripts, so every position-indexed mark read is cross-checked
// against the retained id-indexed reference (marksref.go), which panics
// on the first divergence. Each Reset epoch runs an Observe phase, as
// HELLO does, then marks, reads, hop records and HELLO refreshes of known
// ids. Resets rebind positions to other ids, so a position's marks must
// not outlive its id.
func TestDifferentialSlotMarksVsIDMarks(t *testing.T) {
	const (
		ids      = 40 // small universe → every id is marked many times
		sessions = 6
		epochs   = 150
		ops      = 200
	)
	keys := make([]packet.FloodKey, sessions)
	for i := range keys {
		keys[i] = packet.FloodKey{Source: packet.NodeID(i % 3), Group: 1, Seq: uint32(i)}
	}
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		b := markBase(t)
		b.Shadow()
		for epoch := 0; epoch < epochs; epoch++ {
			b.Reset()
			for n := rng.Intn(ids); n > 0; n-- {
				b.NT.Observe(packet.NodeID(rng.Intn(ids)), []packet.GroupID{packet.GroupID(rng.Intn(2))})
			}
			for op := 0; op < ops; op++ {
				id := packet.NodeID(rng.Intn(ids))
				key := keys[rng.Intn(sessions)]
				i := b.NT.Index(id)
				switch rng.Intn(8) {
				case 0, 1:
					if i >= 0 {
						b.overhear(key, i, rng.Intn(2) == 0)
					}
				case 2:
					if i >= 0 {
						b.NT.Observe(id, []packet.GroupID{1})
					}
				case 3:
					// A route and a hop record, so HasUphillForwarder
					// reads the forwarder marks.
					s := b.ensureSess(key)
					s.hasRoute = true
					s.route.HopCount = int32(1 + rng.Intn(4))
					b.noteHop(s, id, int32(rng.Intn(4)))
				case 4:
					b.RelayProfit(key)
				case 5:
					b.HasUphillForwarder(key)
				case 6:
					marks(b, key, id)
				case 7:
					// Read every entry's marks for every session — the dense
					// cross-check the random single reads might miss.
					for j := 0; j < b.NT.Len(); j++ {
						for _, k := range keys {
							marks(b, k, b.NT.At(j).ID)
						}
					}
				}
			}
		}
	}
}

// TestShadowDetectsDivergence makes sure the oracle is actually armed: a
// deliberately corrupted mark must trip the cross-check panic.
func TestShadowDetectsDivergence(t *testing.T) {
	b := markBase(t)
	b.Shadow()
	b.NT.Observe(3, []packet.GroupID{1})
	overhearFrom(t, b, markKey, 3, false)
	// Corrupt the session block behind the oracle's back.
	b.sess(markKey).covered.Clear(b.NT.Index(3))
	defer func() {
		if recover() == nil {
			t.Fatal("shadowed read of corrupted mark did not panic")
		}
	}()
	b.RelayProfit(markKey)
}
