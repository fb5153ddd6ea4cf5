package netsim

import (
	"fmt"
)

// reinjState tracks one in-transit packet inside a NIC, from the arrival of
// its header until its re-injection completes.
type reinjState struct {
	pkt      *packet
	expected int // flits this ejection will deliver into the NIC
	received int
	recvDone bool
	readyAt  int64 // cycle the re-injection DMA is programmed; -1 until detection
	queued   bool  // moved to the re-injection queue
	toSend   int   // expected - 1 (the ITB mark is stripped)
	sent     int
	released bool // pool bytes returned (normal completion or purge)
}

// injection is the packet currently streaming out of the NIC.
type injection struct {
	pkt    *packet
	toSend int
	sent   int
	reinj  *reinjState // nil for locally generated packets
}

// nic models one Myrinet network interface card: message generation,
// source-route injection, reception, and the in-transit buffer mechanism.
type nic struct {
	host   int
	upLink int // host -> switch link

	// Injection.
	sendQ  []*packet
	sendQH int
	reinjQ []*reinjState
	reinjH int
	cur    injection
	active bool

	// Reception (one inbound packet at a time on the down-link).
	rxPkt      *packet
	rxCount    int
	rxExpected int
	rxStart    int64
	rxReinj    *reinjState

	// rxVC is the per-lane reception state in VC mode (nil under stop &
	// go): deliveries on different lanes of the down-link interleave, so
	// the single-reception fields above do not apply.
	rxVC []vcRx

	// In-transit packets being received or awaiting their DMA timer.
	pending []*reinjState

	// In-transit buffer pool accounting.
	poolUsed  int
	poolPeak  int
	overflows int64

	// Generation process.
	rng     *RNG
	nextGen float64
	stopGen bool
	// genSeq numbers this host's generated messages; packet IDs are
	// genSeq*numHosts + host so every host mints IDs independently of the
	// others.
	genSeq int64
	// genArmed marks a generation wake-up on Sim.genTimers while the NIC
	// is out of the active set (see activeset.go).
	genArmed bool

	// parkedAt is the first cycle a parked NIC (in Sim.parkedNICs, asleep
	// on its stopped up-link) skipped; parkedFull records that its source
	// queue was full and generation on, so skipped cycles from its next
	// generation time also count as backpressure stalls.
	parkedAt   int64
	parkedFull bool

	// Bubble accounting for Params.SourceBubblePeriod.
	sinceBubble int
}

// receive accepts one flit from the down-link.
//
//sim:hotpath
func (n *nic) receive(s *Sim, pkt *packet, tail bool) {
	if s.vcMode {
		n.receiveVC(s, pkt, tail)
		return
	}
	if pkt.dead {
		// Trailing flits of a killed packet drain into the void.
		return
	}
	if n.rxPkt != pkt {
		if n.rxPkt != nil && n.rxCount != n.rxExpected {
			panic(fmt.Sprintf("netsim: host %d: new packet while %d/%d flits of previous outstanding",
				n.host, n.rxCount, n.rxExpected))
		}
		n.startReception(s, pkt)
	}
	n.rxCount++
	s.progress++
	if n.rxReinj != nil {
		r := n.rxReinj
		r.received++
		if r.readyAt < 0 && r.received >= min(s.p.ITBDetectFlits, r.expected) {
			r.readyAt = s.now + int64(s.p.ITBDMAFlits)
		}
		if tail {
			r.recvDone = true
			if r.received != r.expected {
				panic("netsim: ITB reception count mismatch")
			}
		}
		if tail {
			n.rxPkt = nil
			n.rxReinj = nil
		}
		return
	}
	if tail {
		if n.rxCount != n.rxExpected {
			panic(fmt.Sprintf("netsim: host %d: delivered %d flits, expected %d", n.host, n.rxCount, n.rxExpected))
		}
		s.deliver(pkt)
		n.rxPkt = nil
	}
}

func (n *nic) startReception(s *Sim, pkt *packet) {
	n.rxPkt = pkt
	n.rxCount = 0
	n.rxExpected = pkt.wireFlits
	n.rxStart = s.now
	n.rxReinj = nil
	if !(pkt.lastSegment() && pkt.dstHost == n.host) {
		// In-transit packet: reserve pool space for the whole packet
		// before the DMA is started (§3), falling back to host memory
		// (counted, not simulated) when the pool is exhausted.
		if s.cfg.Tracer != nil {
			s.trace(Event{Kind: EvEject, Packet: pkt.id, Host: n.host})
		}
		if s.mx != nil && s.measuring {
			s.mx.Eject(n.host)
		}
		r := &reinjState{pkt: pkt, expected: pkt.wireFlits, readyAt: -1, toSend: pkt.wireFlits - 1}
		n.poolUsed += r.expected
		if n.poolUsed > n.poolPeak {
			n.poolPeak = n.poolUsed
		}
		if n.poolUsed > s.p.ITBPoolBytes {
			n.overflows++
		}
		n.pending = append(n.pending, r)
		n.rxReinj = r
		// The DMA timer and eventual re-injection are tick work: wake the
		// NIC (reception alone does not keep it in the active set).
		s.wakeNIC(n.host)
	}
}

// tick runs the per-cycle NIC work: DMA timers, message generation, and
// starting a new injection when the previous one finished.
//
//sim:hotpath
func (n *nic) tick(s *Sim) {
	// Promote in-transit packets whose re-injection DMA has been
	// programmed.
	if len(n.pending) > 0 {
		kept := n.pending[:0]
		for _, r := range n.pending {
			if !r.queued && r.readyAt >= 0 && s.now >= r.readyAt {
				r.queued = true
				n.reinjQ = append(n.reinjQ, r)
			} else if !r.queued {
				kept = append(kept, r)
			}
		}
		n.pending = kept
	}

	// Message generation at a constant rate; stalls while the source
	// queue is full (the network's backpressure beyond saturation).
	if !n.stopGen {
		for n.nextGen <= float64(s.now) {
			if n.sendQLen() >= s.p.SourceQueueCap {
				// Injection backpressure: a message is due but the source
				// queue is full — the network is pushing back.
				if s.mx != nil && s.measuring {
					s.mx.BackpressureStalls(n.host, 1)
				}
				break
			}
			s.generate(n)
			n.nextGen += s.genIntervalCycles
		}
	}

	// Start the next injection when idle: in-transit packets first (they
	// are re-injected "as soon as possible"). A NIC whose up-link is out
	// of service holds its traffic; retry timers decide its fate.
	if !n.active && !(s.fe != nil && s.fe.down[n.upLink]) {
		if n.reinjH < len(n.reinjQ) {
			r := n.reinjQ[n.reinjH]
			n.reinjQ[n.reinjH] = nil
			n.reinjH++
			if n.reinjH == len(n.reinjQ) {
				n.reinjQ = n.reinjQ[:0]
				n.reinjH = 0
			}
			pkt := r.pkt
			pkt.segIdx++
			pkt.chanIdx = 0
			pkt.wireFlits-- // the ITB mark is removed before re-injection
			pkt.itbVisits++
			n.cur = injection{pkt: pkt, toSend: r.toSend, reinj: r}
			n.active = true
			if s.cfg.Tracer != nil {
				s.trace(Event{Kind: EvReinject, Packet: pkt.id, Host: n.host})
			}
			if s.mx != nil && s.measuring {
				s.mx.Reinject(n.host)
			}
		} else if n.sendQH < len(n.sendQ) {
			pkt := n.sendQ[n.sendQH]
			n.sendQ[n.sendQH] = nil
			n.sendQH++
			if n.sendQH == len(n.sendQ) {
				n.sendQ = n.sendQ[:0]
				n.sendQH = 0
			}
			pkt.injectCycle = s.now
			pkt.injected = true
			n.cur = injection{pkt: pkt, toSend: pkt.wireFlits}
			n.active = true
			if s.cfg.Tracer != nil {
				s.trace(Event{Kind: EvInject, Packet: pkt.id, Host: n.host})
			}
		}
	}
}

func (n *nic) sendQLen() int { return len(n.sendQ) - n.sendQH }

// tickTransfer pushes one flit of the current injection onto the up-link.
// Re-injections never outrun reception: flit k can only leave once flit k+1
// (counting the stripped mark) has arrived.
//
//sim:hotpath
func (n *nic) tickTransfer(s *Sim) {
	if !n.active {
		return
	}
	l := &s.links[n.upLink]
	if l.down {
		return
	}
	if l.credits != nil {
		if l.credits[n.cur.pkt.vc] <= 0 {
			if s.measuring {
				l.idleStopped++
			}
			return
		}
	} else if l.stopped {
		if s.measuring {
			l.idleStopped++
		}
		if !s.dense {
			s.parkNIC(n)
		}
		return
	}
	if r := n.cur.reinj; r != nil && !r.recvDone && n.cur.sent >= r.received-1 {
		return // next flit has not been received yet
	}
	// Footnote 1: source injections (not ITB re-injections, which stream
	// from NIC memory) insert a bubble every SourceBubblePeriod flits.
	if p := s.p.SourceBubblePeriod; p > 0 && n.cur.reinj == nil {
		if n.sinceBubble >= p {
			n.sinceBubble = 0
			return // idle cycle: the bubble
		}
		n.sinceBubble++
	}
	last := n.cur.sent == n.cur.toSend-1
	l.pushFlit(s, n.cur.pkt, last)
	n.cur.sent++
	if last {
		if r := n.cur.reinj; r != nil {
			r.sent = n.cur.sent
			n.releasePool(r)
		}
		n.cur = injection{}
		n.active = false
	}
}

// releasePool returns an in-transit packet's pool reservation exactly once
// (normal completion or fault purge, whichever comes first).
func (n *nic) releasePool(r *reinjState) {
	if !r.released {
		r.released = true
		n.poolUsed -= r.expected
	}
}

// holdsActive reports whether pkt is the NIC's current injection.
func (n *nic) holdsActive(pkt *packet) bool { return n.active && n.cur.pkt == pkt }

// purgeSendQ drops dead packets from the source queue.
func (n *nic) purgeSendQ() {
	kept := n.sendQ[:0]
	for _, p := range n.sendQ[n.sendQH:] {
		if p != nil && !p.dead {
			kept = append(kept, p)
		}
	}
	for i := len(kept); i < len(n.sendQ); i++ {
		n.sendQ[i] = nil
	}
	n.sendQ = kept
	n.sendQH = 0
}

// purgeDead sweeps killed packets out of every NIC queue and state slot
// after an event-time mass kill, releasing their pool reservations.
func (n *nic) purgeDead(s *Sim) {
	if n.rxPkt != nil && n.rxPkt.dead {
		if n.rxReinj != nil {
			n.releasePool(n.rxReinj)
			n.rxReinj = nil
		}
		n.rxPkt = nil
	}
	if len(n.pending) > 0 {
		kept := n.pending[:0]
		for _, r := range n.pending {
			if r.pkt.dead {
				n.releasePool(r)
				continue
			}
			kept = append(kept, r)
		}
		for i := len(kept); i < len(n.pending); i++ {
			n.pending[i] = nil
		}
		n.pending = kept
	}
	if n.reinjH < len(n.reinjQ) {
		kept := n.reinjQ[:0]
		for _, r := range n.reinjQ[n.reinjH:] {
			if r == nil {
				continue
			}
			if r.pkt.dead {
				n.releasePool(r)
				continue
			}
			kept = append(kept, r)
		}
		for i := len(kept); i < len(n.reinjQ); i++ {
			n.reinjQ[i] = nil
		}
		n.reinjQ = kept
		n.reinjH = 0
	} else {
		n.reinjQ = n.reinjQ[:0]
		n.reinjH = 0
	}
	if n.active && n.cur.pkt.dead {
		if r := n.cur.reinj; r != nil {
			n.releasePool(r)
		}
		n.cur = injection{}
		n.active = false
	}
	n.purgeSendQ()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
