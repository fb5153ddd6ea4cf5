package netsim

import (
	"fmt"
	"math"
	"math/bits"
)

// trailingZeros is the set-bit iteration primitive: index of the lowest set
// bit of a word.
func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }

// This file holds the active-set scheduler: the bookkeeping that lets the
// cycle loop visit only the links, switches, and NICs that have work, while
// producing byte-identical results to a dense scan of every component.
//
// Each component class has a bitset of active IDs. The safety rule is
// asymmetric: a spurious member (a component in its set with nothing to do)
// costs one wasted call and is removed on the next visit, but a missing
// member (a component with work absent from its set) silently freezes that
// work. Membership is therefore added eagerly at every site that creates
// work, and removed only at the one point per phase where the component's
// own idle predicate has just been evaluated:
//
//   - the arrival wheel: a ring of ringSize(2*LinkFlightCycles) slots, one
//     per cycle of two flights, each three link bitsets. A link sits on the
//     slot of every cycle at which something that acts arrives on it: every
//     stop & go signal (pushSignal) and every credit return a sender parked
//     on credits waits for (pushCreditAt while it is parked, and parkStarved
//     for the first return already on the ring or, on a NIC down-link, for
//     the return of the first flit in flight), in the signal set; every
//     flit whose arrival could have an effect (pushFlit or a commitment's
//     pushAhead by link.acts, in the flit set: a packet's first flit at a
//     switch input or lane, a flit pushed while the lane holds more than
//     the stop threshold or the VC buffer depth, and at a NIC a packet's
//     first flit, its tail and a flit that starts a run, on every lane);
//     and the slot after the last departure its committed sender makes
//     (commit, in the wake set). Every other credit return waits on the
//     link's signal ring, or as a NIC's flit on its down-link, for the next
//     reader of the link's credit count, which takes the returns that have
//     arrived (link.absorb). A committed flit, a settled credit return or
//     the return of a flit in flight arrives up to 2*LinkFlightCycles-1
//     cycles ahead, so no push lands in the slot being walked. Each slot
//     also keeps a summary bitset with one bit per word of its link sets
//     (live), which every schedule sets. Stage 1 walks the current cycle's
//     slot over the live words, waking the committed senders and
//     delivering the signals and the flits it names, and empties it.
//     Every other flit only joins a switch input's buffer, which reads its
//     occupancy and head packet from the arrival stamps (see cable.go), or
//     waits on a NIC's lane for the next settle of its reception
//     (nic.settleRx), so no visit is owed; the dense loop runs the same
//     arrival handler on it, which does nothing at a switch input and
//     takes the one flit at a NIC. Unlike the sets below, nothing is ever
//     removed from a slot before its cycle: a signal dropped by a failing
//     cable leaves a spurious visit behind.
//   - routingSet: a switch is active while any input has an ungranted
//     routing request or any output is mid-setup (reqOuts or setupOuts
//     non-zero). Added by inPort.requestRouting (the only request site),
//     removed after tickRouting once both masks are zero.
//   - transferSet: a switch is active while any output is connected and
//     not asleep (connOuts &^ sleepOuts non-zero). Added when tickRouting
//     completes a setup and when a parked or committed output wakes,
//     removed after tickTransfer once no such output remains.
//   - nicSet: a NIC is active while it is injecting, holds in-transit
//     packets awaiting their DMA timer, has queued packets it could start
//     (up-link in service), or has message generation due (nextGen <= now).
//     Added by Enqueue, dispatch, startReception, link revival, and every
//     wake of a sleeping NIC; removed after tickTransfer once no reason
//     remains, at which point the generation timer is armed on genTimers
//     instead.
//
// Every link has one sender, the switch output that drives it or the NIC of
// a host up-link, and both kinds go through one life cycle, whose state
// (sender) each keeps in the same form, found by link ID (Sim.sender). A
// sender sleeps off its transfer walk (park: an output joins its switch's
// sleepOuts, which the walk skips, and a NIC leaves nicSet; Sim.sleepers
// holds the link of every sleeping sender) in one of three ways:
//
//   - parked on a stopped stop & go link, when its only work is waiting for
//     the go signal: its visit would only add one to the link's idle count
//     (and, for a NIC with a full source queue, to its backpressure count).
//     An output parks while its input holds flits, an injecting NIC unless
//     in-transit packets await their DMA. The go signal wakes the sender
//     (link.deliverSignals), and the wake adds the skipped measured cycles
//     to the counters in one step. A parked NIC with room in its queue also
//     wakes at its next generation time, on genTimers if it is armed there
//     and on parkTimers otherwise.
//   - parked on a credit link, when its only work is waiting for a credit
//     (parkStarved): an output whose connected lanes all have a ready flit
//     and no credit (outPort.nextSender; a lane in a bubble keeps it
//     awake, as a flit that joins its buffer does not act), an injecting
//     NIC with no credit for its packet's lane and no DMA pending. The
//     arrival of a credit return wakes it (link.deliverSignals), and so
//     does a setup that connects another lane onto a parked output
//     (endForConnect); the wake counts the skipped cycles as
//     credit-starved idle time, and a NIC wakes at its generation time and
//     counts its backpressure as on a stopped link.
//   - committed, while it streams: its departures up to one flight ahead
//     are already decided, because a stop, a go or a credit sent from now
//     on reaches it a flight later and every flit its source receives by
//     then is already on the source's cable. The sender commits them
//     (commitOut for an output, whose source is its input lane; commitNIC
//     for a NIC, whose source is its packet or the reception it
//     re-injects): their flits go onto the link at once with their real
//     arrival stamps, they leave the source only when a settle carries out
//     their departures, and the sender sleeps until the wake the arrival
//     wheel holds for the cycle after its last departure (commit). On a
//     credit link a sender commits while its lane is the one connected lane
//     of its output and of the input port it drains, and each flit also
//     waits for the credit it spends, held or already on the link's signal
//     ring (flightScan). The settle spends the credits, counts the cycles a
//     ready flit waited for one as idle time, and for an output returns its
//     input lane's credits upstream, stamped at departure plus flight.
//     Every other credit push on that upstream link comes after the settle:
//     a sender about to commit on it settles the committed output draining
//     it (settleDrain), and a setup that connects a second lane on the
//     output or its input port ends the commitment first (endForConnect).
//     So credit returns reach each signal ring in the per-cycle loop's
//     order.
//
// Every reader of what a sleeping sender defers settles it first: the
// input's arrival handler, the opening of the measurement window, metrics
// sampling and the watchdog (settleCommits). Work handed to a sleeping NIC
// from outside (a reception, Enqueue, a retry, a queue a table swap purged)
// wakes it (wakeNIC). Every other state change a sleeping sender could
// observe happens at a cycle edge — plan events, the end-of-cycle kill and
// purge — and settleParked wakes every sender before them, as well as
// before Snapshot and finalize read the counters; a wake ends a commitment
// and revokes the departures still ahead (endCommit). settleCommits and
// settleParked also hand every NIC the flits its down-link has delivered
// (settleReceptions), and settleParked takes every credit return that has
// arrived into its link's count (absorb). The dense loop never puts a
// sender to sleep, and a restored run starts with none asleep.
//
// Purge and kill paths otherwise only remove work, so they never need to
// add members; the stale bits they leave behind self-clean on the next
// cycle (the next walk of the slot, on the wheel).
//
// Inside a switch the same idea goes down to ports: swtch.setupOuts,
// connOuts and reqOuts mark the output ports in setup, streaming, and
// holding a request, and the routing and transfer phases visit only those
// ports, lowest bit first (the order of a scan over the switch's outputs).
// Unlike the sets, the port masks are exact, so every site that changes an
// output's state updates them, the purge path included.
type bitset struct {
	words []uint64
}

func newBitset(n int) bitset { return bitset{words: make([]uint64, (n+63)/64)} }

func (b *bitset) add(i int)      { b.words[i>>6] |= 1 << uint(i&63) }
func (b *bitset) remove(i int)   { b.words[i>>6] &^= 1 << uint(i&63) }
func (b *bitset) has(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// fill adds every ID in [0, n).
func (b *bitset) fill(n int) {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		b.words[len(b.words)-1] = (1 << uint(rem)) - 1
	}
}

// timer is one wake-up on a timerHeap, due at cycle at. key orders timers
// due at the same cycle: the host of a generation wake-up (the NIC's next
// message is due at the ceil of its fractional nextGen, so it sleeps until
// then instead of ticking every cycle), or the message sequence number of
// a retry timer, whose message m is.
type timer struct {
	at  int64
	key int64
	m   *msgState
}

// timerHeap is a binary min-heap ordered by (at, key): the pop order is
// deterministic regardless of insertion order. It serves the generation
// wake-ups (genTimers, parkTimers) and the fault engine's retry timers.
type timerHeap []timer

func (h timerHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].key < h[j].key
}

func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h).less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

// pop removes the earliest timer, zeroing the vacated slot so the heap
// holds no stale message pointers.
func (h *timerHeap) pop() timer {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = timer{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*h).less(l, small) {
			small = l
		}
		if r < n && (*h).less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// wheelSlot is one cycle of the arrival wheel: the links a signal reaches
// then, the links a flit that acts reaches then, and the links whose
// committed sender wakes then. live has one bit per word of the three
// link sets, set when a link of that word is scheduled, so stage 1 reads
// only the words that may hold a link.
type wheelSlot struct {
	signals, flits, wakes bitset
	live                  bitset
}

// scheduleSignal puts link lid on the arrival wheel for a signal arriving
// at cycle at, which lies within one flight of now.
//
//sim:hotpath
func (s *Sim) scheduleSignal(lid int, at int64) {
	slot := &s.wheel[at&s.wheelMask]
	slot.signals.add(lid)
	slot.live.add(lid >> 6)
}

// scheduleFlit puts link lid on the arrival wheel for a flit that acts,
// arriving at cycle at, which lies within two flights of now.
//
//sim:hotpath
func (s *Sim) scheduleFlit(lid int, at int64) {
	slot := &s.wheel[at&s.wheelMask]
	slot.flits.add(lid)
	slot.live.add(lid >> 6)
}

// scheduleWake puts link lid on the arrival wheel for the wake of its
// committed sender at cycle at, the cycle after its last committed
// departure.
//
//sim:hotpath
func (s *Sim) scheduleWake(lid int, at int64) {
	slot := &s.wheel[at&s.wheelMask]
	slot.wakes.add(lid)
	slot.live.add(lid >> 6)
}

// armGen arms a sleeping NIC's generation wake-up on the generation heap.
// The wake cycle is ceil(nextGen): the first cycle at which the dense-scan
// condition nextGen <= now would hold. Load 0 (infinite interval) never
// arms.
func (s *Sim) armGen(n *nic) {
	if n.genArmed || n.stopGen || math.IsInf(s.genIntervalCycles, 1) {
		return
	}
	s.genTimers.push(timer{at: int64(math.Ceil(n.nextGen)), key: int64(n.host)})
	n.genArmed = true
}

// wakeNIC puts a NIC into the per-cycle tick set, waking it first if it
// was asleep. Idempotent; call at every site that hands a NIC new work from
// outside its own tick, before the NIC's next visit.
func (s *Sim) wakeNIC(h int) {
	if n := &s.nics[h]; s.sleepers.has(n.tx.link) {
		s.wake(&n.tx, s.now-1)
	}
	s.nicSet.add(h)
}

// measuredCycles counts the cycles of [from, through] inside the
// measurement window, which opens at a cycle boundary and stays open.
func (s *Sim) measuredCycles(from, through int64) int64 {
	if !s.measuring {
		return 0
	}
	return max(0, through-max(from, s.measureStart)+1)
}

// sender is the sender that drives a link (see the top of this file), a
// switch output (outPort.tx) or a NIC (nic.tx): its wiring, which New
// sets, and its life-cycle state, which only the active-set loop changes.
type sender struct {
	link int // the link it drives
	// sw is an output's switch, or -1 for a NIC, and bit the output's bit
	// in its switch's output masks (sleepOuts among them).
	sw  int32
	bit uint32
	// parkedAt is the first cycle a sleeping sender (in Sim.sleepers)
	// skipped.
	parkedAt int64
	// commitMask holds the departures the sender has committed and not yet
	// settled: bit i stands for one flit leaving at cycle commitAt+i on
	// lane lane of its link. Non-zero only while the sender sleeps on a
	// commitment. On a credit link starved holds the cycles, bit i for
	// cycle commitAt+i, at which its next flit has arrived and waits for a
	// credit. from is the link whose lane lane an output's committed flits
	// leave, its input's; a NIC's leave its memory.
	commitAt   int64
	commitMask uint64
	starved    uint64
	lane       uint8
	from       int32
}

// sender returns the state of the sender that drives link lid: the switch
// output in outPortOfLink, or the NIC of a host up-link.
func (s *Sim) sender(lid int) *sender {
	if oi := s.outPortOfLink[lid]; oi >= 0 {
		return &s.outPorts[oi].tx
	}
	return &s.nics[lid-s.numChannels].tx
}

// park takes sender sd off its transfer walk from the next cycle on,
// parked on its stopped link or asleep on a commitment: a switch output
// joins its switch's sleepOuts, which the transfer walk skips, and a NIC
// leaves nicSet. A NIC records whether its source queue is full with
// generation on (parkedFull), so that the cycles it skips from its next
// generation time count as backpressure stalls. With room in the queue a
// parked NIC wakes at that time: genTimers holds the wake-up already when
// the NIC is armed there, and parkTimers holds it otherwise. A committed
// NIC needs none, as its commitment ends before its next message is due.
func (s *Sim) park(sd *sender) {
	sd.parkedAt = s.now + 1
	s.sleepers.add(sd.link)
	if sd.sw >= 0 {
		s.switches[sd.sw].sleepOuts |= sd.bit
		return
	}
	n := &s.nics[sd.link-s.numChannels]
	gen := !n.stopGen && !math.IsInf(s.genIntervalCycles, 1)
	room := n.sendQLen() < s.p.SourceQueueCap
	s.nicSet.remove(n.host)
	n.parkedFull = gen && !room
	if gen && room && !n.genArmed && sd.commitMask == 0 {
		s.parkTimers.push(timer{at: int64(math.Ceil(n.nextGen)), key: int64(n.host)})
	}
}

// unpark puts sleeping sender sd back on its transfer walk, settled
// through cycle through: a switch output leaves sleepOuts and its switch
// rejoins transferSet, and a NIC rejoins nicSet, with each measured cycle
// a full queue skipped from its generation time on counted as a
// backpressure stall.
func (s *Sim) unpark(sd *sender, through int64) {
	s.sleepers.remove(sd.link)
	if sd.sw >= 0 {
		s.switches[sd.sw].sleepOuts &^= sd.bit
		s.transferSet.add(int(sd.sw))
		return
	}
	n := &s.nics[sd.link-s.numChannels]
	s.nicSet.add(n.host)
	if n.parkedFull && s.mx != nil {
		from := max(sd.parkedAt, int64(math.Ceil(n.nextGen)))
		if stalls := s.measuredCycles(from, through); stalls > 0 {
			s.mx.BackpressureStalls(n.host, stalls)
		}
	}
}

// wake wakes sleeping sender sd through cycle through. A committed sender
// ends its commitment (endCommit). A parked one counts each skipped
// measured cycle as idle time on its link, stopped or credit-starved, as
// its visit would have, and rejoins its transfer walk.
func (s *Sim) wake(sd *sender, through int64) {
	if sd.commitMask != 0 {
		s.endCommit(sd, through)
		return
	}
	s.links[sd.link].idleStopped += s.measuredCycles(sd.parkedAt, through)
	s.unpark(sd, through)
}

// parkStarved parks sender sd, which has a flit ready and no credit on its
// credit link l to send it with, until a credit return reaches l: the
// first return already on l's ring goes on the arrival wheel, or on a NIC
// down-link with none there (the read of the count settled the NIC) the
// return of the first flit in flight, which the NIC pushes when it takes
// the flit; each return pushed while sd stays parked goes there as it is
// pushed (pushCreditAt). The arrival wakes sd (link.deliverSignals), and
// so does a setup that connects another lane onto a parked output
// (endForConnect).
func (s *Sim) parkStarved(sd *sender, l *link) {
	s.park(sd)
	if l.signals.n > 0 {
		s.scheduleSignal(l.id, l.signals.front().arrive)
	} else if l.recvNIC >= 0 {
		if _, at, _ := l.nextArrival(); at < math.MaxInt64 {
			s.scheduleSignal(l.id, at+int64(s.p.LinkFlightCycles))
		}
	}
}

// commitOut commits the departures that output op makes on link l in the
// rest of one flight after moving a flit of pkt from input ip, whose lane
// q holds the packet. swtch.tickTransfer calls it under the active-set
// loop. On a stop & go link the output commits while the input has sent no
// stop and its lane holds at most StopThreshold flits, in flight and
// buffered; on a credit link, while the packet's lane is the one connected
// lane of both the output and the input port, so that the lane round robin
// has one lane to serve and every credit the input returns upstream comes
// from this output's departures.
//
// Nothing the output's per-cycle visits read can change before one flight
// has passed. A signal sent on l from now on arrives a flight later, and
// every flit that reaches the input by then is already on its cable. So
// under stop & go the input's occupancy stays at most the stop threshold
// (no stop, no go, no overflow) and its head packet stays pkt; on a credit
// link every credit for the lane that reaches the output by then is held
// or already on l's signal ring, once the committed output draining l's
// far end has settled its returns (settleDrain). Each of pkt's next flits
// before its tail then leaves at the latest of its arrival, one cycle
// after the previous departure and, on a credit link, the arrival of the
// credit it spends (flightScan). The flits stay in q until settle takes
// them at their departure cycles.
//
//sim:hotpath
func (s *Sim) commitOut(op *outPort, l *link, ip *inPort, q *runQueue, pkt *packet) {
	if l.credits == nil {
		if ip.lastSignalStop || q.n > s.p.StopThreshold {
			return
		}
	} else if op.nconn != 1 || connectedLanes(ip) != 1 {
		return
	} else {
		s.settleDrain(l)
	}
	c := s.newScan(l, pkt.vc, s.commitLimit(l))
	c.runs(q, pkt)
	s.commit(&op.tx, ip.link, pkt, &c)
}

// commitNIC commits the departures of a NIC streaming an injection on
// up-link l, as commitOut does for an output: nothing but a signal already
// on l, or on a credit up-link a credit already on its way, can stop it
// within one flight. It commits the next departures up to
// now+LinkFlightCycles-1, before the tail flit, before the first signal on
// a stop & go l and, with room in the source queue, before the next
// message is due. A source injection has the whole packet in NIC memory,
// so its flits follow one per cycle, or on a credit up-link each at the
// arrival of its credit; VC routes never re-inject. A re-injection's flits
// follow one per cycle while the NIC holds the received flit after each;
// flit k waits for received flit k+1, and the NIC reads the arrivals of
// those it does not hold from its down-link's stamps, where every flit
// that arrives within the commitment already is, because stage 4 runs the
// switch transfers first. Settles count the flits sent; work handed to the
// NIC from outside ends the commitment (wakeNIC). nic.tickTransfer calls
// it under the active-set loop with no DMA pending, and for a source
// injection with no source bubbles.
//
//sim:hotpath
func (s *Sim) commitNIC(n *nic, l *link) {
	limit := s.commitLimit(l)
	if !n.stopGen && !math.IsInf(s.genIntervalCycles, 1) && n.sendQLen() < s.p.SourceQueueCap {
		limit = min(limit, int64(math.Ceil(n.nextGen))-1)
	}
	if l.credits != nil {
		s.settleDrain(l)
	}
	c := s.newScan(l, n.cur.pkt.vc, limit)
	k := n.cur.toSend - 1 - n.cur.sent // flits before the tail
	r := n.cur.reinj
	if r != nil && !r.recvDone {
		k = r.received - 1 - n.cur.sent // flits whose next received flit the NIC holds
	}
	// The flits the NIC can send are a run ready one per cycle from the
	// next, and a flight holds fewer than runWindow of them.
	c.run(&flitRun{arrive: s.now + 1, mask: 1<<uint(min(k, runWindow-1)) - 1})
	if r != nil && !r.recvDone {
		c.runs(&s.links[s.hostDownLink(n.host)].lanes[0], r.pkt)
	}
	s.commit(&n.tx, -1, n.cur.pkt, &c)
}

// commit is the tail every commitment shares. The flits of the departures
// c found for pkt go onto sender sd's link at once with their real arrival
// stamps (push eagerly) but leave their source, for an output the lane of
// link from, only when a settle carries out their departures (take
// lazily); the sender sleeps (park) until the wake the arrival wheel holds
// for the cycle after its last departure.
//
//sim:hotpath
func (s *Sim) commit(sd *sender, from int, pkt *packet, c *flightScan) {
	if c.mask == 0 {
		return
	}
	l := &s.links[sd.link]
	l.pushAhead(s, &l.lanes[pkt.vc], pkt, s.now+int64(s.p.LinkFlightCycles), c.mask)
	sd.commitAt, sd.commitMask, sd.starved, sd.lane, sd.from = s.now, c.mask, c.starve, pkt.vc, int32(from)
	s.park(sd)
	s.scheduleWake(sd.link, c.t+1)
}

// commitLimit is the last cycle for which a sender on link l can commit a
// departure at the current cycle: one flight ahead, within a run window,
// and on a stop & go link before the first signal already on l arrives.
func (s *Sim) commitLimit(l *link) int64 {
	limit := s.now + min(int64(s.p.LinkFlightCycles)-1, runWindow-1)
	if l.credits == nil && l.signals.n > 0 && l.signals.front().arrive <= limit {
		limit = l.signals.front().arrive - 1
	}
	return limit
}

// connectedLanes counts the connected lanes of a VC input port.
func connectedLanes(ip *inPort) int {
	n := 0
	for i := range ip.vcs {
		if ip.vcs[i].conn >= 0 {
			n++
		}
	}
	return n
}

// flightScan reads a committing sender's departures from the current cycle
// now up to cycle limit. On a credit link l each departure spends a credit
// for lane v: first the held ones, then the returns for lane v on l's
// signal ring, in arrival order (credit). mask has bit i for a departure
// at cycle now+i, starve bit i for a cycle now+i at which a flit was ready
// and had no credit, and t is the last departure.
type flightScan struct {
	l            *link // nil on a stop & go link
	v            uint8
	held         int
	j            int // next signal on l's ring to read
	limit, now   int64
	t            int64
	mask, starve uint64
}

// newScan starts the departure scan of a sender about to commit on lane v
// of link l, up to cycle limit. On a credit link the held credits include
// every return that has arrived (absorb), so the ring holds the returns
// still ahead.
func (s *Sim) newScan(l *link, v uint8, limit int64) flightScan {
	c := flightScan{v: v, limit: limit, now: s.now, t: s.now}
	if l.credits != nil {
		l.absorb(s, s.now)
		c.l, c.held = l, int(l.credits[v])
	}
	return c
}

// runs adds the departures of pkt's next flits at the front of lane q,
// before its tail flit (run).
//
//sim:hotpath
func (c *flightScan) runs(q *runQueue, pkt *packet) {
	for i := 0; i < q.runs.n; i++ {
		if r := q.runs.at(i); r.pkt != pkt || !c.run(r) {
			return
		}
	}
}

// run adds the departures of the flits of run r, each of which can leave
// from its arrival on, while they fall within the limit and, in a run
// that ends its packet, before the tail flit, and reports whether all of
// them depart. Each leaves at the latest of its arrival, one cycle after
// the previous departure and the arrival of the credit it spends. The
// tail flit leaves on a visit: at a switch output it disconnects, and the
// flit a re-injection's tail waits for is the tail of its reception. With
// no credits to wait for, the flits of a gapless run whose first is there
// by the next free cycle leave one per cycle, which run adds in one step,
// with the loop's result: most stop & go runs are such, and taking them a
// flit at a time costs a measurable share of the run (DESIGN.md).
//
//sim:hotpath
func (c *flightScan) run(r *flitRun) bool {
	t, mask, all := c.t, c.mask, true
	if c.l == nil && r.arrive <= t+1 && r.mask&(r.mask+1) == 0 {
		n := bits.OnesCount64(r.mask)
		if r.tail {
			n--
		}
		k := max(0, min(n, int(c.limit-t)))
		c.mask |= (1<<uint(k) - 1) << uint(t+1-c.now)
		c.t += int64(k)
		return k == n && !r.tail
	}
	for m := r.mask; m != 0; m &= m - 1 {
		if r.tail && m&(m-1) == 0 {
			all = false
			break
		}
		d := max(r.arrive+int64(trailingZeros(m)), t+1)
		if c.l != nil {
			d = c.credit(d)
		}
		if d > c.limit {
			all = false
			break
		}
		t = d
		mask |= 1 << uint(d-c.now)
	}
	c.t, c.mask = t, mask
	return all
}

// credit returns the cycle, from cycle lo on, at which the next flit has a
// credit to spend, or a cycle past the limit when none comes by then; the
// cycles it waits within the limit are starved.
//
//sim:hotpath
func (c *flightScan) credit(lo int64) int64 {
	d := lo
	if c.held > 0 {
		c.held--
	} else {
		for {
			if c.j == c.l.signals.n {
				return c.limit + 1
			}
			g := c.l.signals.at(c.j)
			c.j++
			if g.arrive > c.limit {
				return g.arrive
			}
			if g.vc == c.v {
				d = max(d, g.arrive)
				break
			}
		}
	}
	if d <= c.limit {
		c.starve |= 1<<uint(d-c.now) - 1<<uint(lo-c.now)
	}
	return d
}

// settleDrain settles through the previous cycle the committed output, if
// any, that drains the VC input port at the far end of link l, so that l's
// signal ring holds every credit return the per-cycle visits would have
// sent by then. A sender calls it before it commits on l.
func (s *Sim) settleDrain(l *link) {
	if l.recvPort < 0 {
		return
	}
	for _, in := range s.inPorts[l.recvPort].vcs {
		if in.conn >= 0 {
			s.settle(&s.outPorts[in.conn].tx, s.now-1)
		}
	}
}

// endForConnect ends, through the previous cycle, the commitments that a
// setup connecting output op from VC input ip would break: op's own, whose
// output gains a second connected lane, and the one draining ip through
// another lane, whose input gains one. The connect's header strip then
// returns its credit behind every return of the ended commitment. An op
// parked on credits wakes too (wake): the new lane may have a credit, or a
// bubble no arrival would wake it for.
func (s *Sim) endForConnect(op *outPort, ip *inPort) {
	if s.sleepers.has(op.tx.link) {
		s.wake(&op.tx, s.now-1)
	}
	for _, in := range ip.vcs {
		if in.conn >= 0 {
			s.endCommit(&s.outPorts[in.conn].tx, s.now-1)
		}
	}
}

// dueBy returns the departures in mask, of a commitment made at cycle at,
// that fall at or before cycle through.
func dueBy(at int64, mask uint64, through int64) uint64 {
	d := through - at
	if d <= 0 {
		return 0
	}
	if d < 63 {
		mask &= 2<<uint(d) - 1
	}
	return mask
}

// settle carries out the departures committed sender sd makes through
// cycle through, and wakes the sender once its commitment is spent; a
// sender that holds none has nothing to settle. On a credit link it spends
// their credits, read while the sender still holds them, so that returns a
// NIC the read settles pushes put no sender about to wake on the wheel,
// and counts the cycles its flit waited for one by then as the link's idle
// time, whether or not a departure falls due with them, so the cycles
// before the measurement window opens are not counted. It takes the
// departures from their source: a NIC counts them sent, and an output
// takes their flits from its input lane, each of which must have arrived
// by its departure, and on a credit link returns that lane's credits
// upstream, each stamped at its departure plus the flight. Every settle
// comes by the output's wake, the cycle after its last departure, so each
// return still lies ahead, and it comes before any other credit push on
// the upstream link (settleDrain, endForConnect), so the upstream signal
// ring keeps the per-cycle loop's order. The departures count as the
// link's busy time and as late moves.
//
//sim:hotpath
func (s *Sim) settle(sd *sender, through int64) {
	lid := sd.link
	l := &s.links[lid]
	if sd.starved != 0 {
		sm := dueBy(sd.commitAt, sd.starved, through)
		sd.starved &^= sm
		if s.measuring {
			l.idleStopped += int64(bits.OnesCount64(sm))
		}
	}
	m := dueBy(sd.commitAt, sd.commitMask, through)
	if m == 0 {
		return
	}
	n := bits.OnesCount64(m)
	if l.credits != nil {
		l.absorb(s, through)
		s.spend(l, int(sd.lane), n)
	}
	sd.commitMask &^= m
	if sd.sw < 0 {
		s.nics[lid-s.numChannels].cur.sent += n
		s.nicFlits += int64(n)
	} else {
		up := &s.links[sd.from]
		if last := up.lanes[sd.lane].takeN(n); last > through {
			s.commitLost(lid, through)
		}
		s.outFlits += int64(n)
		if up.credits != nil {
			at := sd.commitAt + int64(s.p.LinkFlightCycles)
			for mm := m; mm != 0; mm &= mm - 1 {
				up.pushCreditAt(s, int(sd.lane), at+int64(trailingZeros(mm)))
			}
		}
	}
	if n := s.lateMove(sd.commitAt, m); s.measuring {
		l.busy += n
	}
	if sd.commitMask == 0 {
		s.unpark(sd, through)
	}
}

// spend spends the credits of n settled departures on lane v of credit link
// l. The settle comes at or after the departures, whose credits have
// arrived by then and been absorbed, so a count below zero fails the
// credit conservation check.
//
//sim:hotpath
func (s *Sim) spend(l *link, v, n int) {
	if l.credits[v] -= int16(n); l.credits[v] < 0 {
		l.noCredit(v)
	}
}

// lateMove counts the flit moves m, one at cycle at+i for each bit i,
// carried out after their cycles, and returns how many there are: they
// are progress, which the watchdog dates by their cycles (see
// Sim.lateMoves).
func (s *Sim) lateMove(at int64, m uint64) int64 {
	n := int64(bits.OnesCount64(m))
	s.progress += n
	s.lateMoves += n
	s.lastLateMove = max(s.lastLateMove, at+int64(63-bits.LeadingZeros64(m)))
	return n
}

// commitLost fails the check that a committed flit has arrived in its input
// lane by its departure, kept out of line so settle holds no allocation
// site.
//
//go:noinline
func (s *Sim) commitLost(lid int, through int64) {
	panic(fmt.Sprintf("netsim: output on link %d committed a flit its input lane has not received by cycle %d", lid, through))
}

// endCommit settles committed sender sd through cycle through, revokes
// the departures after it, whose flits are the newest on its lane, and
// wakes the sender.
func (s *Sim) endCommit(sd *sender, through int64) {
	s.settle(sd, through)
	if sd.commitMask == 0 {
		return
	}
	s.links[sd.link].lanes[sd.lane].unpush(bits.OnesCount64(sd.commitMask))
	sd.commitMask, sd.starved = 0, 0
	s.unpark(sd, through)
}

// settleCommits settles every committed sender through cycle through,
// leaving the rest of each commitment in place, and hands every NIC the
// flits its down-link has delivered by then (settleReceptions). It runs
// before code that reads what a commitment or a reception defers: the
// opening of the measurement window, metrics sampling and the deadlock
// watchdog.
func (s *Sim) settleCommits(through int64) {
	s.settleReceptions(through)
	for w, word := range s.sleepers.words {
		for ; word != 0; word &= word - 1 {
			s.settle(s.sender(w<<6+trailingZeros(word)), through)
		}
	}
}

// settleParked wakes every sleeping sender through cycle through, ending
// every commitment, hands every NIC the flits its down-link has delivered
// by then (settleReceptions), and takes every credit return that has
// arrived by then into its link's count (absorb). It runs before any
// cycle-edge code that could change what a sleeping sender waits on or
// read what it counts or receives: plan events, the end-of-cycle kill and
// purge (through the current cycle, whose visits were skipped too), the
// stall dump, Snapshot, whose walk then finds no arrived flit on a NIC's
// cable and no arrived credit on a signal ring, and finalize.
func (s *Sim) settleParked(through int64) {
	s.settleReceptions(through)
	if s.vcMode {
		for i := range s.links {
			s.links[i].absorb(s, through)
		}
	}
	for w, word := range s.sleepers.words {
		for ; word != 0; word &= word - 1 {
			s.wake(s.sender(w<<6+trailingZeros(word)), through)
		}
	}
}

// settleReceptions hands every NIC the flits its down-link has delivered
// by cycle through (nic.settleRx).
func (s *Sim) settleReceptions(through int64) {
	for h := range s.nics {
		s.nics[h].settleRx(s, through)
	}
}

// nicNeedsTick is the dense-scan activity predicate for one NIC: true when
// a dense tick/tickTransfer of this NIC at the current cycle would have an
// observable effect. Used by the removal check at the end of each cycle and
// by the stranded-work property test's brute-force scan.
func (s *Sim) nicNeedsTick(n *nic) bool {
	if n.active || len(n.pending) > 0 {
		return true
	}
	if !n.stopGen && n.nextGen <= float64(s.now) {
		return true // generation due (or backpressured: stalls count per cycle)
	}
	if (n.reinjH < len(n.reinjQ) || n.sendQH < len(n.sendQ)) &&
		!(s.fe != nil && s.fe.down[n.tx.link]) {
		return true // a queued packet could start injecting
	}
	return false
}

// stepActive runs the four per-cycle phases over the active sets only.
// Set-bit iteration is ascending by component ID over word snapshots, so
// the visit order is the dense scan's order: a component added mid-phase
// either is the one being visited (its post-visit idle check sees the new
// work) or gains work only observable next cycle.
//
//sim:hotpath
func (s *Sim) stepActive() {
	// 1. Links on this cycle's wheel slot wake their committed sender, then
	// deliver their signals and the flit that acts, in ascending link order
	// over the slot's live words; pushes during the walk land on later
	// slots.
	s.seen = s.now
	slot := &s.wheel[s.now&s.wheelMask]
	for lw, live := range slot.live.words {
		if live == 0 {
			continue
		}
		slot.live.words[lw] = 0
		for ; live != 0; live &= live - 1 {
			w := lw<<6 + trailingZeros(live)
			sg, fl, wk := slot.signals.words[w], slot.flits.words[w], slot.wakes.words[w]
			slot.signals.words[w], slot.flits.words[w], slot.wakes.words[w] = 0, 0, 0
			for word := sg | fl | wk; word != 0; word &= word - 1 {
				i := w<<6 + trailingZeros(word)
				bit := uint64(1) << uint(i&63)
				l := &s.links[i]
				if wk&bit != 0 {
					s.settle(s.sender(i), s.now-1)
				}
				if sg&bit != 0 {
					l.deliverSignals(s)
				}
				if fl&bit != 0 {
					l.deliverFlits(s)
				}
			}
		}
	}
	// 2. Switch routing control units.
	for w, word := range s.routingSet.words {
		for word != 0 {
			i := w<<6 + trailingZeros(word)
			word &= word - 1
			sw := &s.switches[i]
			sw.tickRouting(s)
			if sw.setupOuts|sw.reqOuts == 0 {
				s.routingSet.remove(i)
			}
		}
	}
	// 3. NIC bookkeeping: wake NICs whose generation wake-up is due, then
	// tick the active ones. A parkTimers entry whose NIC has woken since is
	// stale and dropped.
	for len(s.genTimers) > 0 && s.genTimers[0].at <= s.now {
		h := int(s.genTimers.pop().key)
		s.nics[h].genArmed = false
		s.wakeNIC(h)
	}
	for len(s.parkTimers) > 0 && s.parkTimers[0].at <= s.now {
		if n := &s.nics[s.parkTimers.pop().key]; s.sleepers.has(n.tx.link) {
			s.wake(&n.tx, s.now-1)
		}
	}
	for w, word := range s.nicSet.words {
		for word != 0 {
			i := w<<6 + trailingZeros(word)
			word &= word - 1
			s.nics[i].tick(s)
		}
	}
	// 4. Transfers; the NIC pass doubles as the sleep point, and both
	// passes park components stalled on a stopped link.
	for w, word := range s.transferSet.words {
		for word != 0 {
			i := w<<6 + trailingZeros(word)
			word &= word - 1
			sw := &s.switches[i]
			sw.tickTransfer(s)
			if sw.connOuts&^sw.sleepOuts == 0 {
				s.transferSet.remove(i)
			}
		}
	}
	for w, word := range s.nicSet.words {
		for word != 0 {
			i := w<<6 + trailingZeros(word)
			word &= word - 1
			n := &s.nics[i]
			n.tickTransfer(s)
			if !s.nicNeedsTick(n) {
				s.nicSet.remove(i)
				s.armGen(n)
			}
		}
	}
}
