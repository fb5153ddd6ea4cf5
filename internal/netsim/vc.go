package netsim

import "fmt"

// Virtual-channel flow control (a routing table with NumVCs > 0). Every
// link is multiplexed into numVCs lanes; each switch input port keeps one
// private buffer and one wormhole connection per lane, and senders spend
// per-lane credits instead of watching stop & go signals. A packet's lane
// comes from its source route (routes.Route.VC) and never changes in
// flight, so the switch's job stays Myrinet-simple: strip the route byte,
// connect the input lane to the requested output's matching lane, and
// time-multiplex the physical link over its connected lanes flit by flit.
//
// The switch pipeline is the one stop & go runs (switch.go), with more
// lanes: a lane with a new head packet requests the output port (routing
// computation), the output's routing unit grants lanes one header at a
// time (VC allocation — the output's matching lane must be free), and the
// established connection then competes with the output's other connected
// lanes for the physical link each cycle (switch traversal under credit
// flow control). The two flow-control models differ only where a flit
// leaves a buffer (a credit return, not a go check), on arrival (the lane
// depth, not the stop threshold) and in what counts as a link's idle time
// (exhausted credits, not a stopped link); credit returns ride the same
// signal pipeline as stop/go flits, and the sender reads them where it
// spends them (link.absorb).

// vcRx is one lane's reception state at a NIC: packets on different lanes
// interleave flits on the host down-link, so reception is tracked per lane.
type vcRx struct {
	pkt   *packet
	count int
}

// receiveVC accepts one flit of a delivery at the destination NIC,
// returning the buffer credit immediately (the NIC drains its per-lane
// receive buffer at link speed). In-transit ejection cannot occur: VC
// routes are single-segment by construction.
//
//sim:hotpath
func (n *nic) receiveVC(s *Sim, pkt *packet, tail bool) {
	r := &n.rxVC[pkt.vc]
	if r.pkt != pkt {
		if r.pkt != nil {
			n.rxVCOverlap(r, pkt.vc)
		}
		r.pkt = pkt
		r.count = 0
	}
	r.count++
	s.links[s.hostDownLink(n.host)].pushCredit(s, int(pkt.vc))
	s.progress++
	if tail {
		if r.count != pkt.wireFlits {
			n.rxVCMismatch(r.count, pkt.wireFlits)
		}
		s.deliver(pkt)
		r.pkt = nil
	}
}

// rxVCOverlap and rxVCMismatch fail receiveVC's conservation checks, kept
// out of line so receiveVC holds no allocation site.
//
//go:noinline
func (n *nic) rxVCOverlap(r *vcRx, vc uint8) {
	panic(fmt.Sprintf("netsim: host %d lane %d: new packet while %d/%d flits of previous outstanding",
		n.host, vc, r.count, r.pkt.wireFlits))
}

//go:noinline
func (n *nic) rxVCMismatch(count, want int) {
	panic(fmt.Sprintf("netsim: host %d: delivered %d flits, expected %d", n.host, count, want))
}
