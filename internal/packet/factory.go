package packet

// Factory recycles Packet frames through per-type free lists. The channel
// reference-counts every transmitted frame (one count per scheduled
// arrival plus one for the transmit-end event) and returns it here after
// the last reference resolves, so steady-state traffic allocates no frame
// memory at all.
//
// The contract that makes this safe is already required by the protocol
// layer: receivers copy payloads by value inside Receive and never retain
// the *Packet (the frame is "off the air" once delivered). Frames built by
// the package-level NewHello may flow through a pooled channel too —
// Release ignores them. Frames that are built but never transmitted come
// back too: a node that is down releases what it is asked to send, and a
// full MAC queue releases what it refuses (channel.Drop).
//
// A Factory is single-goroutine, like the simulation that owns it.
type Factory struct {
	hello []*Packet
	jq    []*Packet
	jr    []*Packet
	data  []*Packet
	geo   []*Packet

	// Every geographic-multicast frame's branches and destination lists
	// are cut from these two arenas rather than from storage the frame
	// owns, so whether a build allocates does not depend on which frame
	// the free list returns: once the arenas have grown to the most the
	// traffic holds at once, no build does. geoLive counts the GMR frames
	// built and not yet recycled; the arenas rewind when it is zero. A
	// frame that is built but never recycled keeps them from rewinding
	// until Reset.
	geoAssign []GeoAssign
	geoDests  []NodeID
	geoLive   int
}

// NewFactory returns an empty factory.
func NewFactory() *Factory { return &Factory{} }

func get(list *[]*Packet) *Packet {
	n := len(*list)
	if n == 0 {
		return &Packet{pooled: true}
	}
	p := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return p
}

// NewHello builds (or recycles) a HELLO frame; the groups slice is copied.
func (f *Factory) NewHello(from NodeID, groups []GroupID) *Packet {
	p := get(&f.hello)
	if p.Hello == nil {
		p.Hello = &Hello{}
	}
	g := p.Hello.Groups[:0]
	g = append(g, groups...)
	p.Hello.Groups = g
	p.Type = THello
	p.From = from
	p.Size = HelloSize + 4*len(g)
	p.UID = 0
	return p
}

// NewJoinQuery builds (or recycles) a JoinQuery frame.
func (f *Factory) NewJoinQuery(from NodeID, q JoinQuery) *Packet {
	p := get(&f.jq)
	if p.JoinQuery == nil {
		p.JoinQuery = &JoinQuery{}
	}
	*p.JoinQuery = q
	p.Type = TJoinQuery
	p.From = from
	p.Size = JoinQuerySize
	p.UID = 0
	return p
}

// NewJoinReply builds (or recycles) a JoinReply frame. NodeID is forced to
// the sender, as the paper's format duplicates the last hop there.
func (f *Factory) NewJoinReply(from NodeID, r JoinReply) *Packet {
	p := get(&f.jr)
	if p.JoinReply == nil {
		p.JoinReply = &JoinReply{}
	}
	r.NodeID = from
	*p.JoinReply = r
	p.Type = TJoinReply
	p.From = from
	p.Size = JoinReplySize
	p.UID = 0
	return p
}

// NewData builds (or recycles) a DATA frame.
func (f *Factory) NewData(from NodeID, d Data) *Packet {
	p := get(&f.data)
	if p.Data == nil {
		p.Data = &Data{}
	}
	*p.Data = d
	p.Type = TData
	p.From = from
	p.Size = DataHeader + d.PayloadLen
	p.UID = 0
	return p
}

// NewGeoData builds (or recycles) a geographic-multicast frame, deep-
// copying the assignment header into the factory's arenas (so the caller
// may reuse its scratch slices). Each branch's destination list is capped
// at its length, so no holder can write into the next one. The size
// accounts for the per-destination header overhead (4 bytes each plus 8
// per branch).
func (f *Factory) NewGeoData(from NodeID, g GeoData) *Packet {
	p := get(&f.geo)
	if p.Geo == nil {
		p.Geo = &GeoData{}
	}
	if f.geoLive == 0 {
		f.geoAssign, f.geoDests = f.geoAssign[:0], f.geoDests[:0]
	}
	f.geoLive++
	first := len(f.geoAssign)
	size := DataHeader + g.PayloadLen
	for _, a := range g.Assign {
		d := len(f.geoDests)
		f.geoDests = append(f.geoDests, a.Dests...)
		f.geoAssign = append(f.geoAssign, GeoAssign{Next: a.Next, Dests: f.geoDests[d:len(f.geoDests):len(f.geoDests)]})
		size += 8 + 4*len(a.Dests)
	}
	*p.Geo = g
	p.Geo.Assign = f.geoAssign[first:len(f.geoAssign):len(f.geoAssign)]
	p.Type = TGeoData
	p.From = from
	p.Size = size
	p.UID = 0
	return p
}

// Reset forgets the GMR frames still counted in flight, so the next
// NewGeoData rewinds the arenas. The owner calls it when it drops every
// frame of a run, in flight or not, as a network reset does.
func (f *Factory) Reset() { f.geoLive = 0 }

// Hold sets the frame's reference count; the channel calls it once per
// transmission with the number of pending events that will Release.
func (f *Factory) Hold(p *Packet, refs int32) { p.refs = refs }

// Release drops one reference and recycles the frame when the last one
// goes. Frames not built by a Factory are ignored.
func (f *Factory) Release(p *Packet) {
	if !p.pooled {
		return
	}
	p.refs--
	if p.refs > 0 {
		return
	}
	switch p.Type {
	case THello:
		f.hello = append(f.hello, p)
	case TJoinQuery:
		f.jq = append(f.jq, p)
	case TJoinReply:
		f.jr = append(f.jr, p)
	case TData:
		f.data = append(f.data, p)
	case TGeoData:
		f.geo = append(f.geo, p)
		f.geoLive--
	}
}
