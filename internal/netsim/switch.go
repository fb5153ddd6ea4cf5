package netsim

import "fmt"

// inPort is the receiving side of a link that terminates at a switch: its
// slack buffer plus the wormhole connection state of the packet currently
// occupying the head of the buffer.
//
// Routing is request-driven: whenever a not-yet-routed packet reaches the
// head of the buffer (first flit into an empty buffer, or the previous
// packet's tail departing), the input computes the packet's requested
// output port and sets its bit in that output's request mask. Free output
// ports then grant requests in demand-slotted round-robin order without
// scanning idle inputs every cycle.
type inPort struct {
	sw       int // owning switch
	link     int // incoming link
	localIdx int // index within the owning switch's input list (for masks)

	buf fifo

	// conn is the outPort index this input streams through, or -1.
	conn int
	// pendingOut is the output port the head packet requested (claimed
	// until granted and stripped), or -1.
	pendingOut int

	lastSignalStop bool // receiver-side flow-control state

	// vcs holds the per-lane buffers and connection state in VC mode
	// (nil under stop & go); buf/conn/pendingOut above are unused then.
	vcs []vcIn
}

// receive accepts one flit from the link into the slack buffer and updates
// stop/go flow control. If this flit starts a new head packet, the packet's
// output request is registered.
//
//sim:hotpath
func (ip *inPort) receive(s *Sim, pkt *packet, tail bool) {
	if s.vcMode {
		ip.receiveVC(s, pkt, tail)
		return
	}
	if pkt.dead {
		// Trailing flits of a killed packet drain into the void; the
		// buffered part was removed when the packet was killed.
		return
	}
	wasHeadless := ip.buf.headSeg() == nil
	ip.buf.push(pkt, 1, tail)
	if ip.buf.occ > s.p.SlackBufferFlits {
		panic(fmt.Sprintf("netsim: slack buffer overflow on link %d (occ %d)", ip.link, ip.buf.occ))
	}
	if wasHeadless {
		ip.requestRouting(s)
	}
	if !ip.lastSignalStop && ip.buf.occ > s.p.StopThreshold {
		ip.lastSignalStop = true
		s.links[ip.link].pushSignal(s, true)
	}
}

// requestRouting registers the head packet's output request with the
// requested output port. The head run always carries at least the route
// flit when this is called. A head packet whose source route crosses a
// link that has since failed cannot be re-routed mid-network; the port
// queues itself on Sim.deadRouteReqs and the end of the cycle kills the
// packet (killDeadHeads), so the next buffered packet requests routing one
// cycle later.
//
//sim:hotpath
func (ip *inPort) requestRouting(s *Sim) {
	hs := ip.buf.headSeg()
	if hs == nil {
		return
	}
	lnk := hs.pkt.nextLink(s)
	if s.fe != nil && s.fe.down[lnk] {
		s.deadRouteReqs = append(s.deadRouteReqs, s.links[ip.link].recvPort)
		return
	}
	oi := s.outPortOfLink[lnk]
	ip.pendingOut = oi
	s.outPorts[oi].reqMask |= 1 << uint(ip.localIdx)
	s.switches[ip.sw].waiting++
	// Sole waiting++ site: wake the control unit.
	s.routingSet.add(ip.sw)
}

// killDeadHeads is requestRouting for cycle-edge code: it kills head
// packets whose source route crosses a dead output until one requests a
// live output or the buffer drains.
func (ip *inPort) killDeadHeads(s *Sim) {
	for hs := ip.buf.headSeg(); hs != nil && s.fe.down[hs.pkt.nextLink(s)]; hs = ip.buf.headSeg() {
		s.fe.kill(s, hs.pkt, DropDeadOutput)
		ip.buf.purgeDead()
		if !s.links[ip.link].down {
			ip.consumed(s)
		}
	}
	ip.requestRouting(s)
}

// consumed updates flow control after flits leave the buffer.
func (ip *inPort) consumed(s *Sim) {
	if ip.lastSignalStop && ip.buf.occ < s.p.GoThreshold {
		ip.lastSignalStop = false
		s.links[ip.link].pushSignal(s, false)
	}
}

// outPort states.
const (
	outFree = iota
	outSetup
	outConnected
)

// outPort is the sending side of a link that originates at a switch. It
// owns the routing control unit for that output: it grants waiting input
// ports in demand-slotted round-robin order, spends RoutingCycles on each
// header, and then streams the packet until its tail passes.
type outPort struct {
	sw   int
	link int // outgoing link

	state     int
	setupLeft int
	inp       int    // input port being served / connected (global index)
	rr        int    // round-robin position (local input index last granted)
	reqMask   uint32 // local input indices with a packet waiting for this output

	// VC mode (nil/zero under stop & go). The routing unit above is shared:
	// one header setup at a time per output, with setupVC naming the lane it
	// serves; the per-lane connection state lives in vconn so the unit can
	// return to outFree while connections stream.
	vcReq   []uint32 // per-lane request masks over local input indices
	vconn   []int32  // per-lane connected input port (global index), -1 free
	nconn   int      // connected lanes on this output
	setupVC int      // lane the current outSetup serves
	txRR    int      // per-cycle flit round robin over connected lanes
}

// swtch groups the ports of one physical switch. The crossbar is implicit:
// any number of distinct input→output connections stream simultaneously.
type swtch struct {
	id   int
	ins  []int // global inPort indices, in port order
	outs []int // global outPort indices, in port order

	// Idle-skip counters.
	waiting int // inputs with an ungranted routing request
	setups  int // output ports in outSetup
	conns   int // output ports in outConnected
}

// tickRouting advances the routing control units of one switch: finishes
// header setups and grants free output ports to requesting inputs.
//
//sim:hotpath
func (sw *swtch) tickRouting(s *Sim) {
	if s.vcMode {
		sw.tickRoutingVC(s)
		return
	}
	if sw.setups > 0 {
		for _, oi := range sw.outs {
			op := &s.outPorts[oi]
			if op.state != outSetup {
				continue
			}
			op.setupLeft--
			if op.setupLeft > 0 {
				continue
			}
			// Routing done: strip the route byte and establish the
			// connection through the crossbar.
			ip := &s.inPorts[op.inp]
			hs := ip.buf.headSeg()
			if hs == nil || hs.flits < 1 {
				panic("netsim: header flit vanished during routing setup")
			}
			pkt := hs.pkt
			ip.buf.take(1)
			pkt.wireFlits--
			pkt.advanceCursor()
			ip.consumed(s)
			ip.conn = oi
			ip.pendingOut = -1
			op.state = outConnected
			sw.setups--
			sw.conns++
			// Sole conns++ site: wake the crossbar.
			s.transferSet.add(sw.id)
			s.progress++
			if s.cfg.Tracer != nil {
				s.trace(Event{Kind: EvRoute, Packet: pkt.id, Switch: sw.id, Link: op.link})
			}
		}
	}
	if sw.waiting > 0 {
		for _, oi := range sw.outs {
			op := &s.outPorts[oi]
			if op.state != outFree || op.reqMask == 0 {
				continue
			}
			// Demand-slotted round robin over the requesting inputs.
			n := len(sw.ins)
			for k := 1; k <= n; k++ {
				idx := (op.rr + k) % n
				if op.reqMask&(1<<uint(idx)) == 0 {
					continue
				}
				op.reqMask &^= 1 << uint(idx)
				op.state = outSetup
				op.setupLeft = s.p.RoutingCycles
				op.inp = sw.ins[idx]
				op.rr = idx
				sw.setups++
				sw.waiting--
				break
			}
		}
	}
}

// tickTransfer streams one flit per connected input→output pair, tearing
// the connection down when the tail flit leaves. When a connection closes,
// the next packet in the input buffer (if any) registers its routing
// request.
//
//sim:hotpath
func (sw *swtch) tickTransfer(s *Sim) {
	if s.vcMode {
		sw.tickTransferVC(s)
		return
	}
	if sw.conns == 0 {
		return
	}
	for _, oi := range sw.outs {
		op := &s.outPorts[oi]
		if op.state != outConnected {
			continue
		}
		ip := &s.inPorts[op.inp]
		l := &s.links[op.link]
		if l.stopped {
			// The paper (§4.7.1) tracks time links sit idle due to the
			// stop & go flow control while a packet wants to advance.
			if s.measuring && ip.buf.occ > 0 {
				l.idleStopped++
			}
			continue
		}
		hs := ip.buf.headSeg()
		if hs == nil || hs.flits < 1 {
			continue // bubble: upstream has not delivered the next flit yet
		}
		last := hs.tail && hs.flits == 1
		pkt := hs.pkt
		ip.buf.take(1)
		l.pushFlit(s, pkt, last)
		ip.consumed(s)
		if last {
			ip.buf.popIfDone()
			ip.conn = -1
			op.state = outFree
			sw.conns--
			if ip.buf.headSeg() != nil {
				ip.requestRouting(s)
			}
		}
	}
}
