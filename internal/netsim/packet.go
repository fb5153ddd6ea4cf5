package netsim

import "itbsim/internal/routes"

// packet is the in-flight representation of one message. A single packet
// object travels the whole journey, including ejection and re-injection at
// in-transit hosts; buffers reference it by pointer.
type packet struct {
	id      int64
	srcHost int
	dstHost int
	route   *routes.Route

	// Cursor: segIdx selects the current route segment, chanIdx the next
	// channel within it. The cursor advances when a switch strips the
	// corresponding header flit, and segIdx advances when an in-transit
	// NIC re-injects the packet.
	segIdx  int
	chanIdx int

	// wireFlits is the current on-the-wire length: payload + header type
	// byte + remaining route bytes + remaining ITB marks. Every switch
	// strip and every ITB mark removal decrements it.
	wireFlits int

	payload int // payload bytes, for accepted-traffic accounting

	// vc is the virtual-channel lane the packet occupies on every link of
	// its journey (VC flow-control mode only; 0 otherwise). It comes from
	// the route, so it is part of the source-routing header, not a
	// per-switch decision.
	vc uint8

	genCycle    int64 // message generation time at the source host
	injectCycle int64 // first flit entered the source NIC's link
	itbVisits   int   // in-transit hosts traversed so far

	measured bool // generated inside the measurement window

	// Fault machinery (nil/zero when Config.Faults is empty).
	msg  *msgState // the message this packet is one attempt of
	dead bool      // killed by a fault; remaining flits are discarded
}

// headerFlits returns the wire overhead of a route: one route byte per
// switch traversed in every segment, one ITB mark per in-transit host, and
// one header-type byte.
func headerFlits(r *routes.Route) int {
	n := 1 // header type byte
	for _, seg := range r.Segs {
		n += len(seg.Channels) + 1 // one route byte per switch, incl. the delivery switch
	}
	n += r.NumITBs() // ITB marks
	return n
}

// nextLink returns the global link ID the packet must take from the switch
// where its header currently is: the next channel of the current segment,
// or the down-link of the segment's target host once the segment's channels
// are exhausted.
func (p *packet) nextLink(s *Sim) int {
	seg := &p.route.Segs[p.segIdx]
	if p.chanIdx < len(seg.Channels) {
		return seg.Channels[p.chanIdx]
	}
	host := seg.ITBHost
	if host < 0 {
		host = p.dstHost
	}
	return s.hostDownLink(host)
}

// advanceCursor is called when a switch strips this packet's route byte.
func (p *packet) advanceCursor() {
	seg := &p.route.Segs[p.segIdx]
	if p.chanIdx < len(seg.Channels) {
		p.chanIdx++
	}
	// Once chanIdx == len(Channels) the next strip is the delivery switch
	// sending the packet to a host; no cursor state changes until the NIC
	// advances segIdx.
}

// lastSegment reports whether the packet is on its final segment (its next
// ejection is the true destination).
func (p *packet) lastSegment() bool { return p.segIdx == len(p.route.Segs)-1 }
