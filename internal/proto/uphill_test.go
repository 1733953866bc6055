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
	// Node 2's neighbors are 1 (hop 1) and 3 (hop 3).
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

func TestHasUphillForwarderRequiresSmallerHop(t *testing.T) {
	bases, key := uphillRig(t)
	b2 := bases[2]
	// Initially node 2 knows node 1 relayed (it overheard the JR with
	// nexthop 0): forwarder at hop 1 < own hop 2 -> uphill.
	if e := b2.NT.Entry(1); e == nil || !e.Forwarder(key) {
		t.Skip("overhearing did not mark node 1 in this draw")
	}
	if !b2.HasUphillForwarder(key) {
		t.Error("node 1 (hop 1) should count as an uphill forwarder for node 2")
	}
	// A downhill forwarder must NOT enable handover: mark node 3 (hop 3).
	b3 := bases[3]
	b3.NT.MarkForwarder(2, key) // irrelevant, just exercise the path
	b2.NT.MarkForwarder(3, key)
	// Remove the uphill mark to isolate the check.
	fresh := packet.FloodKey{Source: 0, Group: 1, Seq: 99}
	b2.NT.MarkForwarder(3, fresh)
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
	bases[1].NT.MarkForwarder(2, key)
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
