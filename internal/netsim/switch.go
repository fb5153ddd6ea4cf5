package netsim

import (
	"fmt"
	"math/bits"
)

// inPort is the receiving side of a link that terminates at a switch: one
// lane per virtual channel of the link (one under stop & go), each a
// buffer with the wormhole connection state of the packet at its head.
//
// Routing is request-driven: whenever a not-yet-routed packet reaches the
// head of a lane's buffer (first flit into an empty buffer, or the previous
// packet's tail departing), the lane computes the packet's requested
// output port and sets its bit in that output's request mask for the
// lane. Free output ports then grant requests in demand-slotted
// round-robin order without scanning idle inputs every cycle.
type inPort struct {
	sw             int  // owning switch
	link           int  // incoming link
	localIdx       int  // index within the owning switch's input list (for masks)
	lastSignalStop bool // receiver-side stop & go state

	// one is the port's one lane under stop & go, kept in the port as
	// runQueue.store keeps a lane's first runs next to its header. Under VC
	// flow control vcs holds the lanes, and one stays unused: no buffer, no
	// connection, no pending output.
	one [1]inLane
	vcs []inLane
}

// lanes returns the port's lanes. The stop & go port answers from its
// header, so its transfer path reaches its lane without a pointer hop.
func (ip *inPort) lanes() []inLane {
	if ip.vcs != nil {
		return ip.vcs
	}
	return ip.one[:]
}

// inLane is one lane of a switch input: its buffer and the connection
// state of its head packet.
type inLane struct {
	// buf is the link's run queue for the lane: the buffer is its arrived
	// part.
	buf *runQueue
	// conn is the outPort index the lane streams through, or -1.
	conn int
	// pendingOut is the output port the head packet requested (claimed
	// until granted and stripped), or -1.
	pendingOut int
}

// arrive runs the input's side of the flit of run r that reaches lane v of
// its link this cycle: the buffer already counts the flit by its stamp.
// A flit that lands in a buffer with no head packet starts its packet's
// routing request; a flit that lifts occupancy over the stop threshold
// sends the stop signal. A buffer never holds more than its depth: stop &
// go and credits guarantee it, and the overflow panic is the conservation
// check. The active-set loop calls arrive on every arrival that acts (see
// link.acts), the dense loop on every arrival; on any other arrival it has
// nothing to do. Stage 1 runs before stage 4, so a committed output the
// port streams through first settles its departures through the previous
// cycle: the buffer then holds what the per-cycle visits would have left.
//
//sim:hotpath
func (ip *inPort) arrive(s *Sim, v int, q *runQueue, r *flitRun) {
	if r.pkt.dead {
		// Trailing flits of a killed packet drain into the void; the
		// buffered part was removed when the packet was killed.
		return
	}
	if c := ip.one[0].conn; s.commits && c >= 0 && s.outPorts[c].commitMask != 0 {
		s.settleOut(&s.outPorts[c], s.now-1)
	}
	headless := r.arrive == s.now && !r.open && q.head(s.now) == r
	occ := 0
	if q.n > s.actLimit { // else occupancy cannot exceed the limit
		occ = q.occ(s.now)
		if occ > s.laneFlits {
			ip.overflow(s, v, occ)
		}
	}
	if headless {
		ip.requestRouting(s, v)
	}
	if occ > s.p.StopThreshold && !s.vcMode && !ip.lastSignalStop {
		ip.lastSignalStop = true
		s.links[ip.link].pushSignal(s, true)
	}
}

// overflow fails a lane buffer's conservation check, kept out of line like
// ring.grow so arrive holds no allocation site.
//
//go:noinline
func (ip *inPort) overflow(s *Sim, v, occ int) {
	if s.vcMode {
		panic(fmt.Sprintf("netsim: VC buffer overflow on link %d lane %d (occ %d)", ip.link, v, occ))
	}
	panic(fmt.Sprintf("netsim: slack buffer overflow on link %d (occ %d)", ip.link, occ))
}

// requestRouting registers the head packet of lane v with its requested
// output port. The head run always carries at least the route flit when
// this is called. A head packet whose source route crosses a link that has
// since failed cannot be re-routed mid-network; the port queues itself on
// Sim.deadRouteReqs and the end of the cycle kills the packet
// (killDeadHeads), so the next buffered packet requests routing one cycle
// later.
//
//sim:hotpath
func (ip *inPort) requestRouting(s *Sim, v int) {
	lane := &ip.lanes()[v]
	hs := lane.buf.head(s.seen)
	if hs == nil {
		return
	}
	lnk := hs.pkt.nextLink(s)
	if s.fe != nil && s.fe.down[lnk] {
		s.deadRouteReqs = append(s.deadRouteReqs, s.links[ip.link].recvPort)
		return
	}
	oi := s.outPortOfLink[lnk]
	lane.pendingOut = oi
	op := &s.outPorts[oi]
	op.lanes()[v].req |= 1 << uint(ip.localIdx)
	s.switches[ip.sw].reqOuts |= 1 << uint(op.localIdx)
	// Sole request site: wake the control unit.
	s.routingSet.add(ip.sw)
}

// killDeadHeads is requestRouting for cycle-edge code: it kills head
// packets whose source route crosses a dead output until one requests a
// live output or the buffer drains. Fault plans run under stop & go, so
// the port has one lane.
func (ip *inPort) killDeadHeads(s *Sim) {
	q := ip.one[0].buf
	for hs := q.head(s.seen); hs != nil && s.fe.down[hs.pkt.nextLink(s)]; hs = q.head(s.seen) {
		s.fe.kill(s, hs.pkt, DropDeadOutput)
		q.purgeDead(s.seen)
		if !s.links[ip.link].down {
			ip.relieve(s)
		}
	}
	ip.requestRouting(s, 0)
}

// consumed runs flow control for one flit that has left lane v's buffer:
// under VC flow control it returns the flit's credit upstream, and under
// stop & go it may send the go signal.
//
//sim:hotpath
func (ip *inPort) consumed(s *Sim, v int) {
	if s.vcMode {
		s.links[ip.link].pushCredit(s, v)
	} else if ip.lastSignalStop {
		ip.relieve(s)
	}
}

// relieve sends the stop & go go signal once the buffer a stop signal
// throttled has drained below the go threshold.
func (ip *inPort) relieve(s *Sim) {
	if ip.lastSignalStop && ip.one[0].buf.occ(s.seen) < s.p.GoThreshold {
		ip.lastSignalStop = false
		s.links[ip.link].pushSignal(s, false)
	}
}

// outPort states: the routing unit is free or sets up one header.
// Connections are per lane (outLane.conn), so the unit is free again while
// they stream.
const (
	outFree = iota
	outSetup
)

// outPort is the sending side of a link that originates at a switch. It
// owns the routing control unit for that output: it grants waiting input
// lanes in demand-slotted round-robin order, spends RoutingCycles on each
// header, and connects the input's lane to its own lane of the same number,
// which then streams the packet until its tail passes. Stop & go is the
// case with one lane: the output serves one packet at a time.
type outPort struct {
	link int // outgoing link
	// one and vcs hold the output's lanes, as in inPort.
	one   [1]outLane
	vcs   []outLane
	nconn int // connected lanes
	txRR  int // lane that sent the output's last flit on a credit link

	sw       int
	localIdx int // index within the owning switch's output list (for masks)

	state     int
	setupLeft int
	inp       int // input port of the current (or last) setup (global index)
	setupVC   int // lane of the current (or last) setup
	// rr is the round-robin position: the (lane, local input) slot last
	// granted, lane*len(ins) + input.
	rr int

	parkedAt int64 // first cycle a parked output (swtch.sleepOuts) skipped

	// commitMask holds the departures a streaming stop & go output has
	// committed and not yet settled: bit i stands for one flit leaving at
	// cycle commitAt+i (see commitOut). Non-zero only while the output
	// sleeps in swtch.sleepOuts on a commitment.
	commitAt   int64
	commitMask uint64
}

// lanes returns the output's lanes.
func (op *outPort) lanes() []outLane {
	if op.vcs != nil {
		return op.vcs
	}
	return op.one[:]
}

// outLane is one lane of a switch output.
type outLane struct {
	req  uint32 // local input indices whose head packet on this lane waits for the output
	conn int32  // input port connected through the lane (global index), or -1
}

// requested reports whether any input (on any lane) waits for this output.
func (op *outPort) requested() bool {
	for _, ol := range op.lanes() {
		if ol.req != 0 {
			return true
		}
	}
	return false
}

// nextGrant picks the request the output's routing unit grants next, over
// the flattened (lane, input) slots lane*n + input of a switch with n
// inputs: the first slot after rr, wrapping around, whose lane is not
// connected downstream and holds a request from that input. A request on a
// connected lane stays pending.
//
//sim:hotpath
func (op *outPort) nextGrant(n int) (v, idx int, ok bool) {
	lanes := op.lanes()
	V := len(lanes)
	start := op.rr + 1
	if start == V*n {
		start = 0
	}
	v, lo := start/n, uint(start%n)
	// The first lane is visited twice: its inputs from lo on first, the
	// ones below lo last.
	for k := 0; k <= V; k++ {
		if ol := &lanes[v]; ol.conn < 0 {
			m := ol.req
			switch k {
			case 0:
				m &= ^uint32(0) << lo
			case V:
				m &= 1<<lo - 1
			}
			if m != 0 {
				return v, bits.TrailingZeros32(m), true
			}
		}
		if v++; v == V {
			v = 0
		}
	}
	return 0, 0, false
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
	connOuts  uint32 // outputs with at least one lane connected
	fullOuts  uint32 // outputs with every lane connected: nothing to grant
	reqOuts   uint32 // outputs with an ungranted request, on any lane

	// sleepOuts is the subset of connOuts off the transfer walk (see
	// activeset.go): outputs parked on a stopped link with flits waiting in
	// their input until the go signal, and outputs whose next departures
	// are committed (commitMask non-zero) until their wake. Never set by
	// the dense loop or under VC flow control.
	sleepOuts uint32
}

// rederiveMasks rebuilds the port masks from the output ports' states.
func (sw *swtch) rederiveMasks(s *Sim) {
	sw.setupOuts, sw.connOuts, sw.fullOuts, sw.reqOuts = 0, 0, 0, 0
	for k, oi := range sw.outs {
		op := &s.outPorts[oi]
		bit := uint32(1) << uint(k)
		if op.state == outSetup {
			sw.setupOuts |= bit
		}
		if op.nconn > 0 {
			sw.connOuts |= bit
		}
		if op.nconn == len(op.lanes()) {
			sw.fullOuts |= bit
		}
		if op.requested() {
			sw.reqOuts |= bit
		}
	}
}

// disconnect tears down the connection of input lane in through lane v of
// output k, whose tail has passed or whose packet was killed.
//
//sim:hotpath
func (sw *swtch) disconnect(op *outPort, k, v int, in *inLane) {
	in.conn = -1
	op.lanes()[v].conn = -1
	op.nconn--
	sw.fullOuts &^= 1 << uint(k)
	if op.nconn == 0 {
		sw.connOuts &^= 1 << uint(k)
	}
}

// tickRouting advances the routing control units of one switch: finishes
// header setups, then grants free units to requesting input lanes in
// combined (lane, input) round-robin order (nextGrant). A granted setup
// occupies the output's single routing unit for RoutingCycles, so header
// processing is serialized per output; an output whose lanes are all
// connected has nothing to grant and is skipped.
//
//sim:hotpath
func (sw *swtch) tickRouting(s *Sim) {
	for m := sw.setupOuts; m != 0; m &= m - 1 {
		k := bits.TrailingZeros32(m)
		oi := sw.outs[k]
		op := &s.outPorts[oi]
		op.setupLeft--
		if op.setupLeft > 0 {
			continue
		}
		// Routing done: strip the route byte and connect the input's lane
		// through the crossbar to the output's lane.
		ip := &s.inPorts[op.inp]
		v := op.setupVC
		in := &ip.lanes()[v]
		hs := in.buf.head(s.seen)
		if hs == nil || !hs.ready(s.seen) {
			panic("netsim: header flit vanished during routing setup")
		}
		pkt := hs.pkt
		in.buf.take()
		pkt.wireFlits--
		pkt.advanceCursor()
		ip.consumed(s, v)
		in.conn = oi
		in.pendingOut = -1
		op.lanes()[v].conn = int32(op.inp)
		op.nconn++
		op.state = outFree
		bit := uint32(1) << uint(k)
		sw.setupOuts &^= bit
		sw.connOuts |= bit
		if op.nconn == len(op.lanes()) {
			sw.fullOuts |= bit
		}
		// Sole connect site: wake the crossbar.
		s.transferSet.add(sw.id)
		s.progress++
		if s.cfg.Tracer != nil {
			s.trace(Event{Kind: EvRoute, Packet: pkt.id, Switch: sw.id, Link: op.link})
		}
	}
	// Outputs with requests whose routing unit is free and which have a
	// lane to connect.
	for m := sw.reqOuts &^ (sw.setupOuts | sw.fullOuts); m != 0; m &= m - 1 {
		k := bits.TrailingZeros32(m)
		op := &s.outPorts[sw.outs[k]]
		v, idx, ok := op.nextGrant(len(sw.ins))
		if !ok {
			continue
		}
		op.lanes()[v].req &^= 1 << uint(idx)
		if !op.requested() {
			sw.reqOuts &^= 1 << uint(k)
		}
		op.state = outSetup
		op.setupLeft = s.p.RoutingCycles
		op.inp = sw.ins[idx]
		op.setupVC = v
		op.rr = v*len(sw.ins) + idx
		sw.setupOuts |= 1 << uint(k)
	}
}

// tickTransfer streams at most one flit per connected output, tearing a
// connection down when its tail flit leaves; the lane's next buffered
// packet, if any, then registers its routing request. An output on a
// stopped stop & go link sends nothing, and the cycles it has a flit to send
// count as the link's stopped time (the paper's §4.7.1 statistic). On a
// credit link the output's connected lanes take turns (nextSender); on a
// stop & go link its one lane sends whenever its buffer has a flit at the
// head. Under the active-set loop a stop & go output that moved a flit may
// commit its next departures and sleep (commitOut).
//
//sim:hotpath
func (sw *swtch) tickTransfer(s *Sim) {
	for m := sw.connOuts &^ sw.sleepOuts; m != 0; m &= m - 1 {
		k := bits.TrailingZeros32(m)
		op := &s.outPorts[sw.outs[k]]
		l := &s.links[op.link]
		s.outVisits++
		if l.stopped {
			// Only a stop & go link stops, and its output has one lane.
			if s.inPorts[op.one[0].conn].one[0].buf.occ(s.seen) > 0 {
				if s.measuring {
					l.idleStopped++
				}
				if !s.dense {
					s.parkOut(sw, k)
				}
			}
			continue
		}
		v := 0
		if l.credits != nil {
			if v = op.nextSender(s, l); v < 0 {
				continue
			}
		}
		ip := &s.inPorts[op.lanes()[v].conn]
		in := &ip.lanes()[v]
		hs := in.buf.head(s.seen)
		if hs == nil || !hs.ready(s.seen) {
			continue // bubble: upstream has not delivered the next flit yet
		}
		pkt := hs.pkt
		last := in.buf.take()
		l.pushFlit(s, pkt, last)
		s.outFlits++
		ip.consumed(s, v)
		if last {
			sw.disconnect(op, k, v, in)
			if in.buf.head(s.seen) != nil {
				ip.requestRouting(s, v)
			}
		} else if s.commits && !ip.lastSignalStop && in.buf.n <= s.p.StopThreshold {
			s.commitOut(sw, k, op, l, in.buf, pkt)
		}
	}
}

// nextSender picks the lane an output on a credit link sends from this
// cycle, and records it as the last sender: the first connected lane after
// the last sender, round robin, whose buffer has a flit at the head and
// whose link lane holds a credit for it. It returns -1 when no lane can
// send; a cycle in which a lane had a flit but no credit then counts as
// credit-starved idle time on the link, the VC analogue of a stopped link.
//
//sim:hotpath
func (op *outPort) nextSender(s *Sim, l *link) int {
	lanes := op.lanes()
	v, starved := op.txRR, false
	for range lanes {
		if v++; v == len(lanes) {
			v = 0
		}
		inp := lanes[v].conn
		if inp < 0 {
			continue
		}
		if hs := s.inPorts[inp].lanes()[v].buf.head(s.seen); hs == nil || !hs.ready(s.seen) {
			continue
		}
		if l.credits[v] > 0 {
			op.txRR = v
			return v
		}
		starved = true
	}
	if starved && s.measuring {
		l.idleStopped++
	}
	return -1
}
