package netsim

import (
	"fmt"
	"math/bits"
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
	released bool  // pool bytes returned (normal completion or purge)
}

// rxLane is a NIC's reception on one lane of its down-link, zero between
// packets: the packet, the flits taken so far and the flits it delivers,
// and an in-transit packet's re-injection record.
type rxLane struct {
	pkt      *packet
	count    int
	expected int
	reinj    *reinjState
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
	host int

	// Injection.
	sendQ  []*packet
	sendQH int
	reinjQ []*reinjState
	reinjH int
	cur    injection
	active bool

	// Reception: one record per lane of the down-link (one under stop &
	// go), as packets on different lanes interleave their flits.
	rx []rxLane

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

	// parkedFull records that a sleeping NIC's source queue was full and
	// generation on (see Sim.park), so skipped cycles from its next
	// generation time also count as backpressure stalls.
	parkedFull bool
	tx         sender // the NIC as its up-link's sender: the link and its life cycle

	// Bubble accounting for Params.SourceBubblePeriod.
	sinceBubble int
}

// settleRx hands the NIC every flit on its down-link that has arrived by
// cycle through, one run of a packet at a time (receive), in arrival order
// across the lanes: the flits of the lane whose next flit arrives first,
// up to the next arrival on another lane, so that a credit down-link's
// returns reach its ring in the order the per-cycle loop pushes them. The
// flits stay on the cable until then: the NIC reads its reception from the
// arrival stamps, as a switch input reads its buffer, and only a flit that
// is its packet's first, starts a run or is the tail acts on arrival (see
// link.acts). Every reader of reception state settles first: the arrival
// that acts, nic.tick while an in-transit reception waits for its
// detection, the re-injection gate of nic.tickTransfer, every read of the
// down-link's credits (link.absorb), settleCommits and settleParked. Under
// the dense loop each arrival settles, one flit at a time.
//
//sim:hotpath
func (n *nic) settleRx(s *Sim, through int64) {
	l := &s.links[s.hostDownLink(n.host)]
	for {
		v, at, next := l.nextArrival()
		if at > through {
			return
		}
		q := &l.lanes[v]
		r := q.runs.front()
		pkt, m := r.pkt, r.mask
		if d := max(min(through, next-1)-at, 0); d < runWindow-1 {
			m &= 2<<uint(d) - 1
		}
		tail := false
		if m == r.mask {
			tail = r.tail
			q.runs.pop()
		} else {
			rest := r.mask &^ m
			shift := trailingZeros(rest)
			r.arrive += int64(shift)
			r.mask = rest >> uint(shift)
		}
		c := bits.OnesCount64(m)
		q.n -= c
		s.rxFlits += int64(c)
		n.receive(s, l, v, pkt, at, m, tail)
	}
}

// receive accepts the next flits of pkt from lane v of down-link l, one
// arriving at cycle at+i for each bit i of m; tail is set when they end
// with the packet's tail. The NIC drains each lane at link speed, so on a
// credit down-link every flit's credit goes back stamped at its arrival
// plus the flight. The packet's first flit and its tail act on arrival, so
// the reception starts and the packet is delivered (or its in-transit
// reception completes) at their arrival cycles. Flits handed over after
// their arrival cycle count as late moves, which the watchdog dates by
// their arrival (Sim.lateMove).
//
//sim:hotpath
func (n *nic) receive(s *Sim, l *link, v int, pkt *packet, at int64, m uint64, tail bool) {
	if l.credits != nil {
		for mm := m; mm != 0; mm &= mm - 1 {
			l.pushCreditAt(s, v, at+int64(trailingZeros(mm)+s.p.LinkFlightCycles))
		}
	}
	if pkt.dead {
		// Trailing flits of a killed packet drain into the void.
		return
	}
	rx := &n.rx[v]
	if rx.pkt != pkt {
		if rx.pkt != nil {
			n.rxOverlap(s, v)
		}
		n.startReception(s, rx, pkt)
	}
	c := bits.OnesCount64(m)
	rx.count += c
	late := m // the flits that arrived before the current cycle
	if d := s.now - at; d < runWindow {
		late &= 1<<uint(d) - 1
	}
	s.progress += int64(bits.OnesCount64(m &^ late))
	if late != 0 {
		s.lateMove(at, late)
	}
	if r := rx.reinj; r != nil {
		// The DMA is programmed ITBDMAFlits after the detection flit, the
		// need-th of these.
		if need := min(s.p.ITBDetectFlits, r.expected) - r.received; r.readyAt < 0 && need <= c {
			for ; need > 1; need-- {
				m &= m - 1
			}
			r.readyAt = at + int64(trailingZeros(m)) + int64(s.p.ITBDMAFlits)
		}
		r.received += c
		if tail {
			r.recvDone = true
			if r.received != r.expected {
				n.rxITBMismatch()
			}
			*rx = rxLane{}
		}
		return
	}
	if tail {
		if rx.count != rx.expected {
			n.rxMismatch(s, v)
		}
		s.deliver(pkt)
		*rx = rxLane{}
	}
}

// rxOverlap, rxMismatch and rxITBMismatch fail the reception's
// conservation checks on lane v, kept out of line so receive holds no
// allocation site.
//
//go:noinline
func (n *nic) rxOverlap(s *Sim, v int) {
	panic(fmt.Sprintf("netsim: %s: new packet while %d/%d flits of previous outstanding",
		n.rxLaneName(s, v), n.rx[v].count, n.rx[v].expected))
}

//go:noinline
func (n *nic) rxMismatch(s *Sim, v int) {
	panic(fmt.Sprintf("netsim: %s: delivered %d flits, expected %d", n.rxLaneName(s, v), n.rx[v].count, n.rx[v].expected))
}

//go:noinline
func (n *nic) rxITBMismatch() { panic("netsim: ITB reception count mismatch") }

// rxLaneName names the NIC's reception on lane v in messages: the host, and
// under VC flow control the lane.
func (n *nic) rxLaneName(s *Sim, v int) string {
	if s.vcMode {
		return fmt.Sprintf("host %d lane %d", n.host, v)
	}
	return fmt.Sprintf("host %d", n.host)
}

// startReception starts the reception of pkt on record rx.
func (n *nic) startReception(s *Sim, rx *rxLane, pkt *packet) {
	*rx = rxLane{pkt: pkt, expected: pkt.wireFlits}
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
		rx.reinj = r
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
	// programmed; the reception in progress knows its DMA time once its
	// detection flit is handed over. In-transit packets ride lane 0: VC
	// routes have no in-transit hosts.
	if r := n.rx[0].reinj; r != nil && r.readyAt < 0 {
		n.settleRx(s, s.now)
	}
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
	if !n.active && !(s.fe != nil && s.fe.down[n.tx.link]) {
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
// (counting the stripped mark) has arrived. Under the active-set loop an
// injection on a stopped up-link, or on a credit up-link with no credit for
// its lane, parks; one that moved a flit may commit its next departures and
// sleep (commitNIC).
//
//sim:hotpath
func (n *nic) tickTransfer(s *Sim) {
	if !n.active {
		return
	}
	s.nicVisits++
	l := &s.links[n.tx.link]
	if l.down {
		return
	}
	if l.credits != nil {
		if l.absorb(s, s.now); l.credits[n.cur.pkt.vc] <= 0 {
			if s.measuring {
				l.idleStopped++
			}
			if !s.dense && len(n.pending) == 0 {
				s.parkStarved(&n.tx, l)
			}
			return
		}
	} else if l.stopped {
		if s.measuring {
			l.idleStopped++
		}
		if !s.dense && len(n.pending) == 0 {
			s.park(&n.tx)
		}
		return
	}
	if r := n.cur.reinj; r != nil && !r.recvDone && n.cur.sent >= r.received-1 {
		if n.settleRx(s, s.now); !r.recvDone && n.cur.sent >= r.received-1 {
			return // next flit has not been received yet
		}
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
	s.nicFlits++
	if last {
		if r := n.cur.reinj; r != nil {
			n.releasePool(r)
		}
		n.cur = injection{}
		n.active = false
	} else if !s.dense && len(n.pending) == 0 && (n.cur.reinj != nil || s.p.SourceBubblePeriod == 0) {
		s.commitNIC(n, l)
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
	for v := range n.rx {
		if rx := &n.rx[v]; rx.pkt != nil && rx.pkt.dead {
			if rx.reinj != nil {
				n.releasePool(rx.reinj)
			}
			*rx = rxLane{}
		}
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
