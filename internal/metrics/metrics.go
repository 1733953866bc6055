// Package metrics observes a simulated multicast session and computes the
// paper's three evaluation metrics (§V.A):
//
//   - normalized transmission overhead — the number of transmissions
//     required to deliver one data packet from the source to all multicast
//     receivers (the count of DATA frames put on the air);
//   - number of extra nodes — data transmitters that are neither the source
//     nor multicast group members;
//   - average relay profit — for each relay, the number of receivers whose
//     first copy of the data arrived from that relay's transmission,
//     averaged over the relays (transmitters other than the source).
//
// It also tracks control overhead per packet type, delivery ratio, and
// per-node energy via the energy model, all fed by the network's
// OnTransmit/OnDeliver hooks.
package metrics

import (
	"mtmrp/internal/bitset"
	"mtmrp/internal/network"
	"mtmrp/internal/packet"
	"mtmrp/internal/sim"
)

// Collector subscribes to a network and accumulates per-session counters.
// Create it before running the simulation; call Snapshot afterwards. Node
// ids are dense, so every per-node set is a word-packed bitset (or a flat
// slice), and the whole collector resets in place for session reuse.
type Collector struct {
	net       *network.Network
	source    packet.NodeID
	group     packet.GroupID
	receivers bitset.Set
	nrecv     int

	txByType    [packet.NumTypes]uint64
	dataTx      []packet.NodeID // distinct transmitters of DATA, in order
	dataTxSet   bitset.Set      // dedup
	dataTxTotal uint64          // all DATA frames (multi-packet sessions)
	firstFrom   []packet.NodeID // receiver -> transmitter of first DATA copy (NoNode = none)
	rxData      bitset.Set      // nodes that received DATA at all
	bytesTx     uint64
	bytesRx     uint64
	controlTx   uint64 // HELLO + JQ + JR transmissions
	profit      []int  // Snapshot scratch: first-copy attribution per node
	prevOnAir   func(*network.Node, *packet.Packet)
	prevOnRecv  func(*network.Node, *packet.Packet)

	// Per-packet robustness tracking (the fault-injection experiments).
	// Every source DATA transmission registers its DataKey here; receivers'
	// first copies are marked per (packet, node) so the collector can
	// compute per-receiver delivery ratios and repair statistics. Only
	// receivers are tracked, in a packet-major grid of len(recvs) cells per
	// packet; a node's cell is its rank, the index of its first place in
	// the receiver list, so a repeated receiver id shares one cell. All
	// session-lifetime storage, rewound in place by Reset.
	recvs  []int            // the receiver list, in Reset order
	rank   []int32          // node -> receiver rank, -1 for non-receivers
	pkts   []packet.DataKey // source packets, in send order
	sendAt []sim.Time       // virtual send time per packet
	perPkt []int            // receivers reached per packet (first copies)
	rxPkt  bitset.Set       // bit pktIdx*len(recvs) + rank: first copy seen
	rxAt   []sim.Time       // pktIdx*len(recvs) + rank -> first-copy arrival time
}

// NewCollector wires a collector into the network's observation hooks,
// chaining any hooks already installed.
func NewCollector(net *network.Network, source packet.NodeID, group packet.GroupID, receivers []int) *Collector {
	c := &Collector{net: net}
	c.prevOnAir = net.OnTransmit
	c.prevOnRecv = net.OnDeliver
	net.OnTransmit = c.onTransmit
	net.OnDeliver = c.onDeliver
	c.Reset(source, group, receivers)
	return c
}

// Reset rewinds the collector for a new session on the same network,
// keeping the hook chain installed by NewCollector (hooks are wired once;
// re-chaining on reuse would stack duplicates).
func (c *Collector) Reset(source packet.NodeID, group packet.GroupID, receivers []int) {
	c.source = source
	c.group = group
	c.receivers.Reset()
	c.nrecv = len(receivers)
	for _, r := range receivers {
		c.receivers.Set(r)
	}
	c.txByType = [packet.NumTypes]uint64{}
	c.dataTx = c.dataTx[:0]
	c.dataTxSet.Reset()
	c.dataTxTotal = 0
	n := len(c.net.Nodes)
	if cap(c.firstFrom) < n {
		c.firstFrom = make([]packet.NodeID, n)
		c.profit = make([]int, n)
	} else {
		c.firstFrom = c.firstFrom[:n]
		c.profit = c.profit[:n]
	}
	for i := range c.firstFrom {
		c.firstFrom[i] = packet.NoNode
	}
	c.rxData.Reset()
	c.bytesTx = 0
	c.bytesRx = 0
	c.controlTx = 0
	if len(c.rank) < n {
		c.rank = make([]int32, n)
		for i := range c.rank {
			c.rank[i] = -1
		}
	}
	for _, r := range c.recvs {
		c.rank[r] = -1
	}
	c.recvs = append(c.recvs[:0], receivers...)
	for i := len(c.recvs) - 1; i >= 0; i-- {
		c.rank[c.recvs[i]] = int32(i)
	}
	c.pkts = c.pkts[:0]
	c.sendAt = c.sendAt[:0]
	c.perPkt = c.perPkt[:0]
	c.rxPkt.Reset()
	c.rxAt = c.rxAt[:0]
}

// AdoptIdle gives c the control-traffic counters of src, a collector on
// a network that has sent no DATA yet: transmissions per frame type,
// bytes on the air and received, and the control transmission count.
// Call it after Reset, for the same source, group and receivers.
func (c *Collector) AdoptIdle(src *Collector) {
	if src.dataTxTotal != 0 || len(src.pkts) != 0 {
		panic("metrics: AdoptIdle from a collector that has seen DATA")
	}
	c.txByType = src.txByType
	c.bytesTx = src.bytesTx
	c.bytesRx = src.bytesRx
	c.controlTx = src.controlTx
}

func (c *Collector) onTransmit(from *network.Node, p *packet.Packet) {
	if c.prevOnAir != nil {
		c.prevOnAir(from, p)
	}
	c.txByType[p.Type]++
	c.bytesTx += uint64(p.Size)
	switch p.Type {
	case packet.TData, packet.TGeoData:
		c.dataTxTotal++
		if !c.dataTxSet.Test(int(from.ID)) {
			c.dataTxSet.Set(int(from.ID))
			c.dataTx = append(c.dataTx, from.ID)
		}
		if from.ID == c.source {
			c.registerPacket(p)
		}
	default:
		c.controlTx++
	}
}

// registerPacket records a source DATA transmission for per-packet
// delivery tracking. Retransmissions of an already-registered key (route
// repair resending a packet) do not register twice.
func (c *Collector) registerPacket(p *packet.Packet) {
	key := dataKey(p)
	// The packet being sent is almost always the newest; scan backwards.
	for i := len(c.pkts) - 1; i >= 0; i-- {
		if c.pkts[i] == key {
			return
		}
	}
	c.pkts = append(c.pkts, key)
	c.sendAt = append(c.sendAt, c.net.Sim.Now())
	c.perPkt = append(c.perPkt, 0)
	// rxAt grows one receiver-list stride per packet; stale values are
	// never read because rxPkt gates every access.
	for len(c.rxAt) < len(c.pkts)*len(c.recvs) {
		c.rxAt = append(c.rxAt, 0)
	}
}

// dataKey extracts the per-packet identity from a DATA/GeoDATA frame.
func dataKey(p *packet.Packet) packet.DataKey {
	if p.Type == packet.TGeoData {
		return p.Geo.PacketKey()
	}
	return p.Data.PacketKey()
}

func (c *Collector) onDeliver(to *network.Node, p *packet.Packet) {
	if c.prevOnRecv != nil {
		c.prevOnRecv(to, p)
	}
	c.bytesRx += uint64(p.Size)
	switch p.Type {
	case packet.TData:
		// Tree-based data is one-to-all: any decode counts.
	case packet.TGeoData:
		// Geographic data is served only to destinations named in the
		// header; an overheard branch frame does not deliver.
		served := false
		for _, d := range p.Geo.DestsFor(to.ID) {
			if d == to.ID {
				served = true
				break
			}
		}
		if !served {
			return
		}
	default:
		return
	}
	if !c.rxData.Test(int(to.ID)) {
		c.rxData.Set(int(to.ID))
		c.firstFrom[to.ID] = p.From
	}
	c.markPacket(to.ID, p)
}

// markPacket records receiver `to`'s first copy of an individual data
// packet; other nodes are not tracked.
func (c *Collector) markPacket(to packet.NodeID, p *packet.Packet) {
	rk := c.rank[to]
	if rk < 0 {
		return
	}
	key := dataKey(p)
	idx := -1
	// In-flight packets cluster at the tail; scan backwards.
	for i := len(c.pkts) - 1; i >= 0; i-- {
		if c.pkts[i] == key {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // not a source-registered packet (e.g. injected by a test)
	}
	bit := idx*len(c.recvs) + int(rk)
	if c.rxPkt.Test(bit) {
		return
	}
	c.rxPkt.Set(bit)
	c.rxAt[bit] = c.net.Sim.Now()
	if to != c.source {
		c.perPkt[idx]++
	}
}

// Result is the frozen outcome of one session.
type Result struct {
	// Transmissions is the normalized transmission overhead: the number
	// of distinct nodes that put DATA on the air (source + every relaying
	// forwarder) — the per-packet cost of the constructed tree.
	Transmissions int
	// DataTxTotal counts every DATA frame across the whole session; for a
	// k-packet session it is ~k x Transmissions.
	DataTxTotal uint64
	// ExtraNodes counts DATA transmitters that are neither the source nor
	// group members.
	ExtraNodes int
	// AvgRelayProfit averages, over non-source DATA transmitters, the
	// number of group-member neighbors that received the data — each
	// relay's RelayProfit in the delivered tree. A receiver adjacent to
	// two relays counts for both, matching the magnitudes of Fig. 5(c).
	AvgRelayProfit float64
	// AvgFirstCopyProfit is the exclusive variant: receivers attributed
	// only to the transmitter of their first received copy.
	AvgFirstCopyProfit float64
	// ReceiversReached counts receivers that got the data.
	ReceiversReached int
	// ReceiverCount is the multicast group size.
	ReceiverCount int
	// DeliveryRatio is ReceiversReached / ReceiverCount (1 for empty groups).
	DeliveryRatio float64
	// ControlTx counts HELLO + JoinQuery + JoinReply transmissions.
	ControlTx uint64
	// TxByType breaks transmissions down by frame type.
	TxByType [packet.NumTypes]uint64
	// BytesTx / BytesRx total the link-layer traffic volume.
	BytesTx, BytesRx uint64
	// Forwarders lists the DATA transmitters other than the source.
	Forwarders []packet.NodeID
	// EnergyTotalJ is the network-wide radio energy for the whole session
	// (control + data), in Joules, under the energy model of §III.
	EnergyTotalJ float64
	// EnergyMaxNodeJ is the hottest single node's consumption in Joules —
	// the first-node-dies lifetime proxy.
	EnergyMaxNodeJ float64
}

// Snapshot computes the session metrics accumulated so far.
func (c *Collector) Snapshot() Result {
	res := Result{
		ControlTx:     c.controlTx,
		TxByType:      c.txByType,
		BytesTx:       c.bytesTx,
		BytesRx:       c.bytesRx,
		ReceiverCount: c.nrecv,
	}
	res.Transmissions = len(c.dataTx)
	res.DataTxTotal = c.dataTxTotal

	// Relay profit: receivers attributed to the transmitter of their
	// first received copy. profit is collector-owned scratch (zeroed here),
	// not a fresh map per call.
	for i := range c.profit {
		c.profit[i] = 0
	}
	c.receivers.Range(func(r int) {
		rcv := packet.NodeID(r)
		if rcv == c.source {
			return
		}
		if from := c.firstFrom[rcv]; from != packet.NoNode {
			c.profit[from]++
			res.ReceiversReached++
		}
	})
	relays := 0
	totalFirst := 0
	totalNeighbor := 0
	for _, tx := range c.dataTx {
		if tx == c.source {
			continue
		}
		relays++
		totalFirst += c.profit[tx]
		for _, nb := range c.net.Topo.Neighbors(int(tx)) {
			id := packet.NodeID(nb)
			if id != c.source && c.receivers.Test(nb) && c.rxData.Test(nb) {
				totalNeighbor++
			}
		}
		res.Forwarders = append(res.Forwarders, tx)
		if !c.receivers.Test(int(tx)) {
			res.ExtraNodes++
		}
	}
	if relays > 0 {
		res.AvgRelayProfit = float64(totalNeighbor) / float64(relays)
		res.AvgFirstCopyProfit = float64(totalFirst) / float64(relays)
	}
	if res.ReceiverCount > 0 {
		res.DeliveryRatio = float64(res.ReceiversReached) / float64(res.ReceiverCount)
	} else {
		res.DeliveryRatio = 1
	}
	return res
}

// DataPacketCount returns the number of distinct data packets the source
// has put on the air so far.
func (c *Collector) DataPacketCount() int { return len(c.pkts) }

// PacketCounts returns, for each source packet in send order, how many
// multicast receivers a first copy has reached so far. The slice is
// collector-owned storage: callers must not modify it or retain it across
// Reset.
func (c *Collector) PacketCounts() []int { return c.perPkt }

// Robustness is the fault-injection outcome of one session: how reliably
// the tree delivered under dynamics, and how quickly it healed. It is a
// separate snapshot from Result so the golden-pinned Result schema stays
// frozen.
type Robustness struct {
	// DataSent counts the distinct data packets the source transmitted.
	DataSent int
	// PDR is each receiver's packet delivery ratio — first copies received
	// over DataSent — indexed like the receiver list the collector was
	// reset with.
	PDR []float64
	// MeanPDR and MinPDR aggregate PDR over the receivers (1 when there are
	// no receivers or no data, the vacuous success of DeliveryRatio).
	MeanPDR, MinPDR float64
	// Repairs counts closed delivery gaps: a receiver missing >= 1 packet
	// and then receiving a later one means the protocol's soft state
	// rebuilt a path to it. A gap still open at the end of the run is an
	// outage, not a repair.
	Repairs int
	// MeanTimeToRepair averages, over closed gaps, the virtual time from
	// the send of the first missed packet to the arrival that closed the
	// gap (0 when nothing needed repair).
	MeanTimeToRepair sim.Time
}

// Robustness computes the per-receiver delivery and repair statistics for
// everything run so far. Unlike Snapshot it allocates its PDR slice; call
// it once per run, outside reuse-sensitive loops.
func (c *Collector) Robustness() Robustness {
	m := len(c.pkts)
	rb := Robustness{DataSent: m, PDR: make([]float64, len(c.recvs)), MeanPDR: 1, MinPDR: 1}
	if m == 0 {
		for i := range rb.PDR {
			rb.PDR[i] = 1
		}
		return rb
	}
	var ttrSum sim.Time
	sum := 0.0
	for ri, r := range c.recvs {
		got := 0
		gapStart := -1
		rk := int(c.rank[r])
		for i := 0; i < m; i++ {
			bit := i*len(c.recvs) + rk
			if c.rxPkt.Test(bit) {
				got++
				if gapStart >= 0 {
					rb.Repairs++
					ttrSum += c.rxAt[bit] - c.sendAt[gapStart]
					gapStart = -1
				}
			} else if gapStart < 0 {
				gapStart = i
			}
		}
		pdr := float64(got) / float64(m)
		rb.PDR[ri] = pdr
		sum += pdr
		if pdr < rb.MinPDR {
			rb.MinPDR = pdr
		}
	}
	if len(c.recvs) > 0 {
		rb.MeanPDR = sum / float64(len(c.recvs))
	}
	if rb.Repairs > 0 {
		rb.MeanTimeToRepair = ttrSum / sim.Time(rb.Repairs)
	}
	return rb
}
