// Package packet defines the over-the-air message formats shared by every
// protocol in the repository: HELLO beacons, ODMRP/MTMRP JoinQuery and
// JoinReply control messages, and DATA payloads.
//
// Field names follow §IV of the paper. All frames are link-layer broadcast
// (the wireless medium is shared); "addressing" such as JoinReply's
// NexthopID is carried in the payload and interpreted by the protocol, so
// overhearing — which both DODMRP's bias and MTMRP's PHS rely on — falls
// out naturally.
package packet

import "fmt"

// NodeID identifies a node. IDs are dense indices into the network's node
// slice, which keeps per-node state in flat slices on the hot path.
type NodeID int32

// NoNode is the nil NodeID.
const NoNode NodeID = -1

// GroupID identifies a multicast group.
type GroupID int32

// Type enumerates frame types.
type Type uint8

// Frame types.
const (
	THello Type = iota
	TJoinQuery
	TJoinReply
	TData
	TGeoData // geographic multicast data (stateless baseline)
	numTypes
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case THello:
		return "HELLO"
	case TJoinQuery:
		return "JOIN_QUERY"
	case TJoinReply:
		return "JOIN_REPLY"
	case TData:
		return "DATA"
	case TGeoData:
		return "GEO_DATA"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// NumTypes is the number of distinct frame types (for metric arrays).
const NumTypes = int(numTypes)

// Packet is one over-the-air frame. From is the transmitting node (last
// hop); the semantic originator lives in the payload where relevant.
type Packet struct {
	Type Type
	From NodeID // transmitter of this frame
	Size int    // bytes on air, for duration and energy accounting
	UID  uint64 // unique per transmission, assigned by the channel

	// Exactly one of the following is set, matching Type.
	Hello     *Hello
	JoinQuery *JoinQuery
	JoinReply *JoinReply
	Data      *Data
	Geo       *GeoData

	// Factory bookkeeping (see factory.go): pooled marks frames owned by a
	// Factory; refs counts the channel events still referencing the frame.
	pooled bool
	refs   int32
}

// Hello is the periodic beacon exchanged during initialization (§IV.B):
// it carries the sender's multicast group memberships so neighbors can
// maintain membership-annotated neighbor tables.
type Hello struct {
	Groups []GroupID
}

// JoinQuery is the flooded multicast route request (§IV.C.1).
type JoinQuery struct {
	SourceID   NodeID
	GroupID    GroupID
	SequenceNo uint32
	HopCount   int32
	PathProfit int32 // MTMRP only; zero for ODMRP/DODMRP
}

// Key identifies the flood this query belongs to, for duplicate detection.
func (q JoinQuery) Key() FloodKey {
	return FloodKey{Source: q.SourceID, Group: q.GroupID, Seq: q.SequenceNo}
}

// JoinReply travels from a multicast receiver back toward the source along
// the reverse path of the JoinQuery (§IV.C.2).
type JoinReply struct {
	NodeID     NodeID // last-hop sender (== From, duplicated per paper format)
	NexthopID  NodeID // selected next hop toward the source
	ReceiverID NodeID // multicast receiver that originated this reply
	SourceID   NodeID
	GroupID    GroupID
	SequenceNo uint32
}

// Key identifies the multicast session, for duplicate detection.
func (r JoinReply) Key() FloodKey {
	return FloodKey{Source: r.SourceID, Group: r.GroupID, Seq: r.SequenceNo}
}

// Data is a multicast data packet flowing down the constructed tree.
// SequenceNo identifies the session (matching the JoinQuery that built the
// tree); DataSeq distinguishes successive packets within the session.
type Data struct {
	SourceID   NodeID
	GroupID    GroupID
	SequenceNo uint32
	DataSeq    uint32
	PayloadLen int
}

// Key identifies the session this packet belongs to (forwarding-group
// lookup at relays).
func (d Data) Key() FloodKey {
	return FloodKey{Source: d.SourceID, Group: d.GroupID, Seq: d.SequenceNo}
}

// DataKey identifies this individual packet for duplicate suppression.
type DataKey struct {
	Session FloodKey
	Seq     uint32
}

// PacketKey returns the per-packet identity.
func (d Data) PacketKey() DataKey {
	return DataKey{Session: d.Key(), Seq: d.DataSeq}
}

// GeoAssign routes a subset of the remaining destinations through one
// selected neighbor (geographic multicast header entry).
type GeoAssign struct {
	Next  NodeID
	Dests []NodeID
}

// GeoData is the stateless geographic-multicast data packet: the header
// carries, for each selected next hop, the destinations it is responsible
// for. There is no discovery phase; the split is recomputed per hop.
type GeoData struct {
	SourceID   NodeID
	GroupID    GroupID
	SequenceNo uint32
	DataSeq    uint32
	PayloadLen int
	Assign     []GeoAssign
	TTL        int32 // hop budget; guards against greedy routing loops
}

// Key identifies the session.
func (g GeoData) Key() FloodKey {
	return FloodKey{Source: g.SourceID, Group: g.GroupID, Seq: g.SequenceNo}
}

// PacketKey returns the per-packet identity.
func (g GeoData) PacketKey() DataKey {
	return DataKey{Session: g.Key(), Seq: g.DataSeq}
}

// DestsFor returns the destination subset assigned to node id, or nil.
func (g GeoData) DestsFor(id NodeID) []NodeID {
	for _, a := range g.Assign {
		if a.Next == id {
			return a.Dests
		}
	}
	return nil
}

// FloodKey uniquely identifies one flood/session: (source, group, sequence).
type FloodKey struct {
	Source NodeID
	Group  GroupID
	Seq    uint32
}

// Frame sizes in bytes, approximating the paper's message formats plus
// MAC/PHY framing. Only relative durations matter for backoff dynamics.
const (
	HelloSize     = 32
	JoinQuerySize = 44
	JoinReplySize = 48
	DataHeader    = 36
)

// NewHello builds a HELLO frame for sender id. The groups slice is copied
// so callers may reuse their buffer.
func NewHello(from NodeID, groups []GroupID) *Packet {
	g := make([]GroupID, len(groups))
	copy(g, groups)
	return &Packet{
		Type:  THello,
		From:  from,
		Size:  HelloSize + 4*len(g),
		Hello: &Hello{Groups: g},
	}
}
