package netsim

import (
	"fmt"
	"math/bits"
)

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

	// buf is the link's run queue: the slack buffer is its arrived part.
	buf *runQueue

	// conn is the outPort index this input streams through, or -1.
	conn int
	// pendingOut is the output port the head packet requested (claimed
	// until granted and stripped), or -1.
	pendingOut int

	lastSignalStop bool // receiver-side flow-control state

	// vcs holds the per-lane buffers and connection state in VC mode
	// (nil under stop & go); buf (nil then), conn and pendingOut above are
	// unused then.
	vcs []vcIn
}

// arrive runs the input's side of the flit of run r that reaches lane v of
// its link this cycle: the buffer already counts the flit by its stamp.
// A flit that lands in a buffer with no head packet starts its packet's
// routing request; a flit that lifts occupancy over the stop threshold
// sends the stop signal. The active-set loop calls it on every arrival
// that acts (see link.acts), the dense loop on every arrival; on any other
// arrival it has nothing to do.
//
//sim:hotpath
func (ip *inPort) arrive(s *Sim, v int, q *runQueue, r *flitRun) {
	if s.vcMode {
		ip.arriveVC(s, v, q, r)
		return
	}
	if r.pkt.dead {
		// Trailing flits of a killed packet drain into the void; the
		// buffered part was removed when the packet was killed.
		return
	}
	headless := r.arrive == s.now && !r.open && q.head(s.now) == r
	occ := 0
	if q.n > s.p.StopThreshold { // else occupancy cannot exceed it
		occ = q.occ(s.now)
		if occ > s.p.SlackBufferFlits {
			ip.overflow(occ)
		}
	}
	if headless {
		ip.requestRouting(s)
	}
	if !ip.lastSignalStop && occ > s.p.StopThreshold {
		ip.lastSignalStop = true
		s.links[ip.link].pushSignal(s, true)
	}
}

// overflow fails the slack buffer's conservation check, kept out of line
// like ring.grow so arrive holds no allocation site.
//
//go:noinline
func (ip *inPort) overflow(occ int) {
	panic(fmt.Sprintf("netsim: slack buffer overflow on link %d (occ %d)", ip.link, occ))
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
	hs := ip.buf.head(s.seen)
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
	op := &s.outPorts[oi]
	op.reqMask |= 1 << uint(ip.localIdx)
	s.switches[ip.sw].reqOuts |= 1 << uint(op.localIdx)
	// Sole request site: wake the control unit.
	s.routingSet.add(ip.sw)
}

// killDeadHeads is requestRouting for cycle-edge code: it kills head
// packets whose source route crosses a dead output until one requests a
// live output or the buffer drains.
func (ip *inPort) killDeadHeads(s *Sim) {
	for hs := ip.buf.head(s.seen); hs != nil && s.fe.down[hs.pkt.nextLink(s)]; hs = ip.buf.head(s.seen) {
		s.fe.kill(s, hs.pkt, DropDeadOutput)
		ip.buf.purgeDead(s.seen)
		if !s.links[ip.link].down {
			ip.consumed(s)
		}
	}
	ip.requestRouting(s)
}

// consumed updates flow control after flits leave the buffer.
func (ip *inPort) consumed(s *Sim) {
	if ip.lastSignalStop && ip.buf.occ(s.seen) < s.p.GoThreshold {
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
	sw       int
	link     int // outgoing link
	localIdx int // index within the owning switch's output list (for masks)

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

	parkedAt int64 // first cycle a parked output (swtch.parkedOuts) skipped
}

// requested reports whether any input (on any lane) waits for this output.
func (op *outPort) requested() bool {
	if op.reqMask != 0 {
		return true
	}
	for _, m := range op.vcReq {
		if m != 0 {
			return true
		}
	}
	return false
}

// swtch groups the ports of one physical switch. The crossbar is implicit:
// any number of distinct input→output connections stream simultaneously.
type swtch struct {
	id   int
	ins  []int // global inPort indices, in port order
	outs []int // global outPort indices, in port order

	// Port masks over local output indices (bit k stands for outs[k]): the
	// port-level active sets. They are derived from the output ports' states
	// and updated at every site that changes one (see activeset.go); the
	// phase loops visit only the ports in them, lowest bit first, which is
	// the order of a scan over outs.
	setupOuts uint32 // outputs in outSetup
	connOuts  uint32 // outputs streaming: outConnected, or at least one lane connected (VC)
	reqOuts   uint32 // outputs with an ungranted request, on any lane

	// parkedOuts is the subset of connOuts asleep on a stopped link with
	// flits waiting in their input until the go signal (see activeset.go);
	// the transfer walk skips them. Never set by the dense loop or in VC
	// mode.
	parkedOuts uint32
}

// portCounts derives from the output ports' states the three counters a
// checkpoint carries per switch: inputs (lanes, in VC mode) with an
// ungranted request, outputs in setup, and connections (connected lanes, in
// VC mode).
func (sw *swtch) portCounts(s *Sim) (waiting, setups, conns int) {
	for _, oi := range sw.outs {
		op := &s.outPorts[oi]
		waiting += bits.OnesCount32(op.reqMask)
		for _, m := range op.vcReq {
			waiting += bits.OnesCount32(m)
		}
		switch op.state {
		case outSetup:
			setups++
		case outConnected:
			conns++
		}
		conns += op.nconn
	}
	return waiting, setups, conns
}

// rederiveMasks rebuilds the port masks from the output ports' states.
func (sw *swtch) rederiveMasks(s *Sim) {
	sw.setupOuts, sw.connOuts, sw.reqOuts = 0, 0, 0
	for k, oi := range sw.outs {
		op := &s.outPorts[oi]
		bit := uint32(1) << uint(k)
		if op.state == outSetup {
			sw.setupOuts |= bit
		}
		if op.state == outConnected || op.nconn > 0 {
			sw.connOuts |= bit
		}
		if op.requested() {
			sw.reqOuts |= bit
		}
	}
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
	for m := sw.setupOuts; m != 0; m &= m - 1 {
		k := bits.TrailingZeros32(m)
		oi := sw.outs[k]
		op := &s.outPorts[oi]
		op.setupLeft--
		if op.setupLeft > 0 {
			continue
		}
		// Routing done: strip the route byte and establish the
		// connection through the crossbar.
		ip := &s.inPorts[op.inp]
		hs := ip.buf.head(s.seen)
		if hs == nil || !hs.ready(s.seen) {
			panic("netsim: header flit vanished during routing setup")
		}
		pkt := hs.pkt
		ip.buf.take()
		pkt.wireFlits--
		pkt.advanceCursor()
		ip.consumed(s)
		ip.conn = oi
		ip.pendingOut = -1
		op.state = outConnected
		sw.setupOuts &^= 1 << uint(k)
		sw.connOuts |= 1 << uint(k)
		// Sole connect site: wake the crossbar.
		s.transferSet.add(sw.id)
		s.progress++
		if s.cfg.Tracer != nil {
			s.trace(Event{Kind: EvRoute, Packet: pkt.id, Switch: sw.id, Link: op.link})
		}
	}
	// Free outputs with requests: neither in setup nor connected.
	for m := sw.reqOuts &^ (sw.setupOuts | sw.connOuts); m != 0; m &= m - 1 {
		k := bits.TrailingZeros32(m)
		op := &s.outPorts[sw.outs[k]]
		// Demand-slotted round robin over the requesting inputs.
		n := len(sw.ins)
		for j := 1; j <= n; j++ {
			idx := (op.rr + j) % n
			if op.reqMask&(1<<uint(idx)) == 0 {
				continue
			}
			op.reqMask &^= 1 << uint(idx)
			if op.reqMask == 0 {
				sw.reqOuts &^= 1 << uint(k)
			}
			op.state = outSetup
			op.setupLeft = s.p.RoutingCycles
			op.inp = sw.ins[idx]
			op.rr = idx
			sw.setupOuts |= 1 << uint(k)
			break
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
	for m := sw.connOuts &^ sw.parkedOuts; m != 0; m &= m - 1 {
		k := bits.TrailingZeros32(m)
		op := &s.outPorts[sw.outs[k]]
		ip := &s.inPorts[op.inp]
		l := &s.links[op.link]
		if l.stopped {
			// The paper (§4.7.1) tracks time links sit idle due to the
			// stop & go flow control while a packet wants to advance.
			if ip.buf.occ(s.seen) > 0 {
				if s.measuring {
					l.idleStopped++
				}
				if !s.dense {
					s.parkOut(sw, k)
				}
			}
			continue
		}
		hs := ip.buf.head(s.seen)
		if hs == nil || !hs.ready(s.seen) {
			continue // bubble: upstream has not delivered the next flit yet
		}
		pkt := hs.pkt
		last := ip.buf.take()
		l.pushFlit(s, pkt, last)
		ip.consumed(s)
		if last {
			ip.conn = -1
			op.state = outFree
			sw.connOuts &^= 1 << uint(k)
			if ip.buf.head(s.seen) != nil {
				ip.requestRouting(s)
			}
		}
	}
}
