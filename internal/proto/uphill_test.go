package proto

import (
	"testing"

	"mtmrp/internal/packet"
	"mtmrp/internal/sim"
)

// uphillRig builds a 4-node line and runs hello + a flood so that routes
// and neighbor hop counts are populated.
func uphillRig(t *testing.T) ([]*Base, packet.FloodKey) {
	t.Helper()
	net, bases := rig(t, 4, Hooks{QueryDelay: fixedDelay(sim.Millisecond), Overhear: true}, deterministicConfig())
	net.Nodes[3].JoinGroup(1)
	key := session(net, bases)
	return bases, key
}

func TestNeighborHopLearning(t *testing.T) {
	bases, key := uphillRig(t)
	// Node 2's neighbors are 1 (hop 1) and 3 (hop 3), both in its table
	// after HELLO: hops are recorded only for senders with an entry.
	for _, id := range []packet.NodeID{1, 3} {
		if bases[2].NT.Index(id) < 0 {
			t.Fatalf("node %d missing from node 2's table after HELLO", id)
		}
	}
	if h, ok := bases[2].NeighborHop(key, 1); !ok || h != 1 {
		t.Errorf("hop(1) = %d,%v want 1", h, ok)
	}
	if h, ok := bases[2].NeighborHop(key, 3); !ok || h != 3 {
		t.Errorf("hop(3) = %d,%v want 3", h, ok)
	}
	if _, ok := bases[2].NeighborHop(key, 0); ok {
		t.Error("node 0 is out of range of node 2; no hop info should exist")
	}
}

// TestNeighborHopNeedsTableEntry pins what the hop scratch records: only
// JoinQuery senders that have a neighbor-table entry. With no HELLO phase
// (and the HELLO-count gate off) node 2 still learns its route from node
// 1 but records no hop for it; node 3, entered by hand before the flood,
// is recorded.
func TestNeighborHopNeedsTableEntry(t *testing.T) {
	net, bases := rig(t, 4, Hooks{QueryDelay: fixedDelay(sim.Millisecond)}, deterministicConfig())
	bases[2].NT.Observe(3, nil)
	key := bases[0].FloodQuery(1)
	net.Run()
	if r := bases[2].RouteFor(key); r == nil || r.Upstream != 1 {
		t.Fatalf("node 2 route = %+v, want upstream 1", r)
	}
	if _, ok := bases[2].NeighborHop(key, 1); ok {
		t.Error("sender 1 has no table entry; its hop must not be recorded")
	}
	if h, ok := bases[2].NeighborHop(key, 3); !ok || h != 3 {
		t.Errorf("hop(3) = %d,%v want 3", h, ok)
	}
}

func TestHasUphillForwarderRequiresSmallerHop(t *testing.T) {
	bases, key := uphillRig(t)
	b2 := bases[2]
	// Initially node 2 knows node 1 relayed (it overheard the JR with
	// nexthop 0): forwarder at hop 1 < own hop 2 -> uphill.
	if _, fwd := marks(b2, key, 1); !fwd {
		t.Skip("overhearing did not mark node 1 in this draw")
	}
	if !b2.HasUphillForwarder(key) {
		t.Error("node 1 (hop 1) should count as an uphill forwarder for node 2")
	}
	// A downhill forwarder must NOT enable handover: mark node 3 (hop 3).
	b3 := bases[3]
	overhearFrom(t, b3, key, 2, true) // irrelevant, just exercise the path
	overhearFrom(t, b2, key, 3, true)
	// Remove the uphill mark to isolate the check.
	fresh := packet.FloodKey{Source: 0, Group: 1, Seq: 99}
	overhearFrom(t, b2, fresh, 3, true)
	if b2.HasUphillForwarder(fresh) {
		t.Error("session with no route must never report an uphill forwarder")
	}
}

func TestHasUphillForwarderNoRoute(t *testing.T) {
	bases, _ := uphillRig(t)
	ghost := packet.FloodKey{Source: 9, Group: 9, Seq: 9}
	if bases[1].HasUphillForwarder(ghost) {
		t.Error("unknown session cannot have uphill forwarders")
	}
}

// TestDownhillAnchorRejected builds the poisoning case directly: the only
// known forwarder neighbor is farther from the source, so PHS-style hooks
// gated on HasUphillForwarder must not fire.
func TestDownhillAnchorRejected(t *testing.T) {
	net, bases := rig(t, 4, Hooks{
		QueryDelay: fixedDelay(sim.Millisecond),
		Overhear:   true,
		// Graft exactly when an uphill forwarder exists.
		GraftOnReply: func(b *Base, key packet.FloodKey) bool {
			return b.HasUphillForwarder(key)
		},
	}, deterministicConfig())
	net.Nodes[3].JoinGroup(1)
	net.Start()
	net.Run()
	key := bases[0].FloodQuery(1)

	// Poison node 1's table mid-flood: claim node 2 (downhill) forwards.
	overhearFrom(t, bases[1], key, 2, true)
	net.Run()

	// Node 1 must still have relayed the JR toward the source rather than
	// grafting onto its own downstream.
	if bases[0].RepliesHeard(key) != 1 {
		t.Errorf("source heard %d replies; downhill anchor must not absorb the reply",
			bases[0].RepliesHeard(key))
	}
	bases[0].SendData(key, 8)
	net.Run()
	if !bases[3].GotData(key) {
		t.Error("delivery failed despite rejected downhill anchor")
	}
}
