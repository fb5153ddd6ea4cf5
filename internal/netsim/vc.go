package netsim

import (
	"fmt"
	"math/bits"
)

// Virtual-channel flow control (Params.VCs > 0). Every link is multiplexed
// into numVCs lanes; each switch input port keeps one private buffer and
// one wormhole connection per lane, and senders spend per-lane credits
// instead of watching stop & go signals. A packet's lane comes from its
// source route (routes.Route.VC) and never changes in flight, so the
// switch's job stays Myrinet-simple: strip the route byte, connect the
// input lane to the requested output's matching lane, and time-multiplex
// the physical link over its connected lanes flit by flit.
//
// The state machine per input-port lane mirrors the classic three-stage VC
// router pipeline (routing computation -> VC allocation -> switch/link
// traversal), collapsed to wormhole semantics: a lane with a new head
// packet requests the output port (routing computation), the output's
// routing unit grants lanes one header at a time (VC allocation — the
// output's matching lane must be free), and the established connection then
// competes with the output's other connected lanes for the physical link
// each cycle (switch traversal under credit flow control).
//
// Both step loops (dense and active-set) branch into this file through
// arrive/tickRouting/tickTransfer, and credit returns ride the same signal
// pipeline as stop/go flits.

// vcIn is one lane of a switch input port: its buffer and connection state.
type vcIn struct {
	buf *runQueue // the link's queue for this lane
	// conn is the outPort index this lane streams through, or -1.
	conn int
	// pendingOut is the output the lane's head packet requested, or -1.
	pendingOut int
}

// vcRx is one lane's reception state at a NIC: packets on different lanes
// interleave flits on the host down-link, so reception is tracked per lane.
type vcRx struct {
	pkt   *packet
	count int
}

// arriveVC is arrive for lane v under VC flow control: a flit that lands
// in a lane buffer with no head packet starts its routing request. Credit
// flow control guarantees the buffer never overflows; the panic is the
// conservation check.
func (ip *inPort) arriveVC(s *Sim, v int, q *runQueue, r *flitRun) {
	headless := r.arrive == s.now && !r.open && q.head(s.now) == r
	if q.n > s.p.VCBufFlits { // else occupancy cannot exceed it
		if occ := q.occ(s.now); occ > s.p.VCBufFlits {
			panic(fmt.Sprintf("netsim: VC buffer overflow on link %d lane %d (occ %d)", ip.link, v, occ))
		}
	}
	if headless {
		ip.requestRoutingVC(s, v)
	}
}

// requestRoutingVC registers the lane's head packet with its requested
// output port. VC mode excludes faults, so the requested link is always
// live. The request stays pending (and the switch stays in the routing set
// via waiting > 0) until the output's matching lane is free and the grant
// round-robin reaches it.
func (ip *inPort) requestRoutingVC(s *Sim, vc int) {
	vb := &ip.vcs[vc]
	hs := vb.buf.head(s.seen)
	if hs == nil {
		return
	}
	oi := s.outPortOfLink[hs.pkt.nextLink(s)]
	vb.pendingOut = oi
	op := &s.outPorts[oi]
	op.vcReq[vc] |= 1 << uint(ip.localIdx)
	s.switches[ip.sw].reqOuts |= 1 << uint(op.localIdx)
	// Sole request site in VC mode: wake the control unit.
	s.routingSet.add(ip.sw)
}

// tickRoutingVC advances one switch's routing units under VC flow control:
// finishes header setups, then grants free units to requesting lanes in
// combined (lane, input) round-robin order. A request whose output lane is
// already connected stays pending; a granted setup occupies the output's
// single routing unit for RoutingCycles, serializing header processing per
// output exactly as the stop & go model does.
//
//sim:hotpath
func (sw *swtch) tickRoutingVC(s *Sim) {
	for m := sw.setupOuts; m != 0; m &= m - 1 {
		k := bits.TrailingZeros32(m)
		op := &s.outPorts[sw.outs[k]]
		op.setupLeft--
		if op.setupLeft > 0 {
			continue
		}
		// Routing done: strip the route byte, return its buffer slot's
		// credit upstream, and connect lane to lane.
		ip := &s.inPorts[op.inp]
		vc := op.setupVC
		vb := &ip.vcs[vc]
		hs := vb.buf.head(s.seen)
		if hs == nil || !hs.ready(s.seen) {
			panic("netsim: header flit vanished during VC routing setup")
		}
		pkt := hs.pkt
		vb.buf.take()
		pkt.wireFlits--
		pkt.advanceCursor()
		s.links[ip.link].pushCredit(s, vc)
		vb.conn = sw.outs[k]
		vb.pendingOut = -1
		op.vconn[vc] = int32(op.inp)
		op.nconn++
		op.state = outFree
		sw.setupOuts &^= 1 << uint(k)
		sw.connOuts |= 1 << uint(k)
		// Sole connect site in VC mode: wake the crossbar.
		s.transferSet.add(sw.id)
		s.progress++
		if s.cfg.Tracer != nil {
			s.trace(Event{Kind: EvRoute, Packet: pkt.id, Switch: sw.id, Link: op.link})
		}
	}
	// Outputs with requests whose routing unit is free; connected lanes
	// do not occupy the unit.
	for m := sw.reqOuts &^ sw.setupOuts; m != 0; m &= m - 1 {
		k := bits.TrailingZeros32(m)
		op := &s.outPorts[sw.outs[k]]
		// Demand-slotted round robin over the flattened (lane, input)
		// request space; lanes already connected downstream are skipped,
		// their requests left pending.
		n := len(sw.ins)
		total := len(op.vcReq) * n
		for j := 1; j <= total; j++ {
			slot := (op.rr + j) % total
			vc, idx := slot/n, slot%n
			if op.vconn[vc] >= 0 || op.vcReq[vc]&(1<<uint(idx)) == 0 {
				continue
			}
			op.vcReq[vc] &^= 1 << uint(idx)
			if !op.requested() {
				sw.reqOuts &^= 1 << uint(k)
			}
			op.state = outSetup
			op.setupLeft = s.p.RoutingCycles
			op.inp = sw.ins[idx]
			op.setupVC = vc
			op.rr = slot
			sw.setupOuts |= 1 << uint(k)
			break
		}
	}
}

// tickTransferVC streams at most one flit per output port per cycle,
// round-robin over the output's connected lanes: a lane is eligible when
// its buffer has a flit at the head and the output link holds a credit for
// it. Every flit consumed from a lane buffer returns a credit upstream.
// When no lane can send but some lane was blocked purely by credits, the
// cycle counts as flow-control idle time, the VC-mode analogue of the
// paper's stop & go link-stopped statistic.
//
//sim:hotpath
func (sw *swtch) tickTransferVC(s *Sim) {
	for m := sw.connOuts; m != 0; m &= m - 1 {
		k := bits.TrailingZeros32(m)
		op := &s.outPorts[sw.outs[k]]
		l := &s.links[op.link]
		V := len(op.vconn)
		sent, starved := false, false
		for j := 1; j <= V; j++ {
			vc := (op.txRR + j) % V
			inp := op.vconn[vc]
			if inp < 0 {
				continue
			}
			ip := &s.inPorts[inp]
			vb := &ip.vcs[vc]
			hs := vb.buf.head(s.seen)
			if hs == nil || !hs.ready(s.seen) {
				continue // bubble: upstream has not delivered the next flit yet
			}
			if l.credits[vc] <= 0 {
				starved = true
				continue
			}
			pkt := hs.pkt
			last := vb.buf.take()
			l.pushFlit(s, pkt, last)
			s.links[ip.link].pushCredit(s, vc)
			if last {
				vb.conn = -1
				op.vconn[vc] = -1
				op.nconn--
				if op.nconn == 0 {
					sw.connOuts &^= 1 << uint(k)
				}
				if vb.buf.head(s.seen) != nil {
					ip.requestRoutingVC(s, vc)
				}
			}
			op.txRR = vc
			sent = true
			break
		}
		if !sent && starved && s.measuring {
			l.idleStopped++
		}
	}
}

// receiveVC accepts one flit of a delivery at the destination NIC,
// returning the buffer credit immediately (the NIC drains its per-lane
// receive buffer at link speed). In-transit ejection cannot occur: VC
// routes are single-segment by construction.
func (n *nic) receiveVC(s *Sim, pkt *packet, tail bool) {
	r := &n.rxVC[pkt.vc]
	if r.pkt != pkt {
		if r.pkt != nil {
			panic(fmt.Sprintf("netsim: host %d lane %d: new packet while %d/%d flits of previous outstanding",
				n.host, pkt.vc, r.count, r.pkt.wireFlits))
		}
		r.pkt = pkt
		r.count = 0
	}
	r.count++
	s.links[s.hostDownLink(n.host)].pushCredit(s, int(pkt.vc))
	s.progress++
	if tail {
		if r.count != pkt.wireFlits {
			panic(fmt.Sprintf("netsim: host %d: delivered %d flits, expected %d", n.host, r.count, pkt.wireFlits))
		}
		s.deliver(pkt)
		r.pkt = nil
	}
}
