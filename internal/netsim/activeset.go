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
//     signal or credit (pushSignal, pushCredit, pushCreditAt, in the signal
//     set) and every flit whose arrival could have an effect (pushFlit or a
//     commitment's pushAhead by link.acts, in the flit set: a packet's
//     first flit at a switch input or lane, a flit pushed while the lane
//     holds more than the stop threshold or the VC buffer depth, and at a
//     NIC a packet's first flit, its tail and a flit that starts a run, or
//     every flit under VC flow control); and on the slot after the last
//     departure its committed sender makes (commitOut, commitCredit,
//     commitNIC, in the wake set). A committed flit, or a settled credit
//     return, arrives up to 2*LinkFlightCycles-1 cycles ahead, so no push
//     lands in the slot being walked. Each slot
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
//     wake of a parked NIC; removed after tickTransfer once no reason
//     remains, at which point the generation timer is armed on genTimers
//     instead.
//
// A component whose only work is waiting on a stopped stop & go link parks
// until the go signal: its per-cycle visit would only add one to the link's
// idle count (and, for a NIC with a full source queue, to its backpressure
// count). An injecting NIC on a stopped up-link leaves nicSet after its
// transfer visit (parkNIC) unless in-transit packets await their DMA; a
// connected output on a stopped link whose input holds flits joins its
// switch's sleepOuts mask, which the transfer walk skips.
// link.deliverSignals wakes the sender when the go signal arrives, and a
// wake adds the skipped measured cycles to the counters in one step
// (unparkNIC, unparkOut). A parked NIC with room in its queue also wakes at
// its next generation time, on genTimers if it is armed there and on the
// separate parkTimers heap otherwise. Work handed to a parked NIC from
// outside (a reception, Enqueue, a retry, a queue a table swap purged)
// wakes it through wakeNIC. Every other state change a parked component
// could observe happens at a cycle edge — plan events, the end-of-cycle
// kill and purge — and settleParked wakes everything before them, as well
// as before Snapshot and finalize read the counters. The dense loop never
// parks; VC mode (credits, not stop & go) never parks, and a sender out of
// credits visits every cycle until one arrives.
//
// A streaming stop & go sender sleeps the same way on a commitment: its
// next departures up to one flight ahead are already decided, because a
// stop or go sent from now on reaches it a flight later and every flit
// its input receives by then is already on the input's cable. A switch
// output that has just moved a flit, whose input has sent no stop and
// holds at most StopThreshold flits, commits them (commitOut), and so does
// a NIC streaming a source injection or a re-injection (commitNIC), whose
// flits wait on their reception by the down-link's stamps: the flits go
// onto the next cable at once with their real arrival stamps, stay in the
// input lane (or count as unsent) until a settle carries out their
// departures, and the sender sleeps in sleepOuts (parkedNICs) until its
// wake on the arrival wheel. Every reader of what a commitment defers
// settles first: the input's arrival handler (settleOut), the opening of
// the measurement window, metrics sampling and the watchdog
// (settleCommits), and every site settleParked serves, which also revokes
// the departures still ahead (endCommit, endCommitNIC); so does work
// handed to a committed NIC (wakeNIC). settleCommits and settleParked also
// hand every NIC the flits its down-link has delivered (settleReceptions).
// A restored run starts with no commitments.
//
// A sender on a credit link commits the same way (commitCredit, and
// commitNIC on a credit up-link) while its lane is the one connected lane
// of its output and of the input port it drains: each flit then also
// waits for the credit it spends, held or already on the link's signal
// ring (creditScan). A settle spends the credits, counts the cycles a
// ready flit waited for one as idle time and returns the input lane's
// credits upstream stamped at departure plus flight (settleCredits). Every
// other credit push on that upstream link comes after the settle: a
// sender about to commit on it settles the committed output draining it
// (settleDrain), and a setup that connects a second lane on the output or
// its input port ends the commitment first (endForConnect). So credit
// returns reach each signal ring in the per-cycle loop's order.
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

// wakeNIC puts a NIC into the per-cycle tick set, settling it first if it
// was parked. Idempotent; call at every site that hands a NIC new work from
// outside its own tick, before the NIC's next visit.
func (s *Sim) wakeNIC(h int) {
	if s.parkedNICs.has(h) {
		s.unparkNIC(&s.nics[h], s.now-1)
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

// parkNIC puts an injecting NIC whose stop & go up-link is stopped to sleep
// until the go signal; nic.tickTransfer calls it under the active-set loop.
// The NIC stays awake while in-transit packets await their DMA timer. Its
// tick ran earlier this cycle, so no message is due with room in its source
// queue; with room, it wakes at its next generation time: genTimers holds
// that wake-up already when the NIC is armed there, and parkTimers holds it
// otherwise.
func (s *Sim) parkNIC(n *nic) {
	if len(n.pending) > 0 {
		return
	}
	gen := !n.stopGen && !math.IsInf(s.genIntervalCycles, 1)
	room := n.sendQLen() < s.p.SourceQueueCap
	s.nicSet.remove(n.host)
	s.parkedNICs.add(n.host)
	n.parkedAt = s.now + 1
	n.parkedFull = gen && !room
	if gen && room && !n.genArmed {
		s.parkTimers.push(timer{at: int64(math.Ceil(n.nextGen)), key: int64(n.host)})
	}
}

// unparkNIC settles a parked NIC through cycle through and puts it back in
// the tick set. Each skipped measured cycle is one the NIC's transfer visit
// would have counted as stop & go idle time on its up-link. A committed NIC
// sleeps in the same set; it ends its commitment instead (endCommitNIC).
func (s *Sim) unparkNIC(n *nic, through int64) {
	if n.commitMask != 0 {
		s.endCommitNIC(n, through)
		return
	}
	s.links[n.upLink].idleStopped += s.measuredCycles(n.parkedAt, through)
	s.wakeSleeper(n, through)
}

// wakeSleeper puts a parked or committed NIC back in the tick set. With a
// full queue, each measured cycle it skipped from its generation time on
// through cycle through is a backpressure stall.
func (s *Sim) wakeSleeper(n *nic, through int64) {
	s.parkedNICs.remove(n.host)
	s.nicSet.add(n.host)
	if n.parkedFull && s.mx != nil {
		from := max(n.parkedAt, int64(math.Ceil(n.nextGen)))
		if stalls := s.measuredCycles(from, through); stalls > 0 {
			s.mx.BackpressureStalls(n.host, stalls)
		}
	}
}

// parkOut puts switch output k, connected on a stopped link with flits
// waiting in its input, to sleep until the go signal; swtch.tickTransfer
// calls it under the active-set loop.
func (s *Sim) parkOut(sw *swtch, k int) {
	sw.sleepOuts |= 1 << uint(k)
	s.outPorts[sw.outs[k]].parkedAt = s.now + 1
}

// unparkOut settles parked output k of sw through cycle through: each
// skipped measured cycle is stop & go idle time on its link. The caller
// puts the switch back in the transfer set.
func (s *Sim) unparkOut(sw *swtch, k int, through int64) {
	sw.sleepOuts &^= 1 << uint(k)
	op := &s.outPorts[sw.outs[k]]
	s.links[op.link].idleStopped += s.measuredCycles(op.parkedAt, through)
}

// wakeSender wakes the component parked on link lid, whose go signal has
// just arrived: the switch output that drives it, or the NIC of a host
// up-link. A committed output never waits on a stopped link: its
// commitment ends before the first signal on the link arrives.
func (s *Sim) wakeSender(lid int) {
	if oi := s.outPortOfLink[lid]; oi >= 0 {
		op := &s.outPorts[oi]
		sw := &s.switches[op.sw]
		if sw.sleepOuts&(1<<uint(op.localIdx)) != 0 {
			s.unparkOut(sw, op.localIdx, s.now-1)
			s.transferSet.add(op.sw)
		}
	} else if h := lid - s.numChannels; s.parkedNICs.has(h) {
		s.unparkNIC(&s.nics[h], s.now-1)
	}
}

// commitOut commits the departures that output k of sw, on stop & go link
// l, makes in the rest of one flight after moving a flit of pkt from input
// lane q at the current cycle. swtch.tickTransfer calls it under the
// active-set loop when the input has sent no stop and its lane holds at
// most StopThreshold flits, in flight and buffered.
//
// Nothing the output's per-cycle visits read can change before one flight
// has passed: a signal sent on l from now on arrives a flight later, and
// every flit that reaches the input by then is already on its cable, so
// its occupancy stays at most the stop threshold (no stop, no go, no
// overflow) and its head packet stays pkt. The commitment therefore takes
// pkt's next flits up to cycle now+LinkFlightCycles-1, before the tail
// flit and before the first signal already on l, each leaving at the later
// of its arrival and one cycle after the previous departure. They go onto
// l at once with their real arrival stamps (push eagerly) but stay in q
// until settleOut removes them at their departure cycles (take lazily).
// The output sleeps in sleepOuts until the wake the arrival wheel holds
// for the cycle after its last departure.
//
//sim:hotpath
func (s *Sim) commitOut(sw *swtch, k int, op *outPort, l *link, q *runQueue, pkt *packet) {
	mask, t := s.departures(q, pkt, 0, s.now, s.commitLimit(l))
	if mask == 0 {
		return
	}
	l.pushAhead(s, &l.lanes[0], pkt, s.now+int64(s.p.LinkFlightCycles), mask)
	op.commitAt, op.commitMask = s.now, mask
	sw.sleepOuts |= 1 << uint(k)
	s.scheduleWake(l.id, t+1)
}

// departures adds to mask, departures from the current cycle on whose last
// is at cycle t, one for each next flit of pkt at the front of lane q
// before its tail flit: each leaves at the later of its arrival and one
// cycle after the previous departure, up to cycle limit. It returns the
// departures and the last of them. The tail flit leaves on a visit: at a
// switch output it disconnects, and the flit a re-injection's tail waits
// for is the tail of its reception.
//
//sim:hotpath
func (s *Sim) departures(q *runQueue, pkt *packet, mask uint64, t, limit int64) (uint64, int64) {
	for i := 0; i < q.runs.n; i++ {
		r := q.runs.at(i)
		if r.pkt != pkt {
			break
		}
		for m := r.mask; m != 0; m &= m - 1 {
			if r.tail && m&(m-1) == 0 {
				return mask, t
			}
			d := max(r.arrive+int64(trailingZeros(m)), t+1)
			if d > limit {
				return mask, t
			}
			t = d
			mask |= 1 << uint(d-s.now)
		}
	}
	return mask, t
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

// commitCredit is commitOut for output k of sw on credit link l, which has
// just moved a flit of pkt from lane v of input ip. It commits only while
// lane v is the one connected lane of both the output and the input port:
// the lane round robin then has one lane to serve, and every credit the
// input returns upstream comes from this output's departures.
//
// Nothing the output's per-cycle visits read can change within one flight,
// as under stop & go: every flit that reaches lane v by then is already on
// the input's cable, and every credit for lane v that reaches the output by
// then is held or already on l's signal ring, once the committed output
// draining l's far end has settled its returns (settleDrain). So each of
// pkt's next flits before its tail leaves at the latest of its arrival, one
// cycle after the previous departure and the arrival of the credit it
// spends (creditScan). The flits go onto l's lane v at once, and settleOut
// later takes them from the input lane, spends their credits, returns the
// input lane's credits upstream and counts the cycles a ready flit waited
// for its credit.
//
//sim:hotpath
func (s *Sim) commitCredit(sw *swtch, k int, op *outPort, l *link, ip *inPort, v int, pkt *packet) {
	if op.nconn != 1 || connectedLanes(ip) != 1 {
		return
	}
	s.settleDrain(l)
	c := creditScan{l: l, v: uint8(v), held: int(l.credits[v]), limit: s.commitLimit(l), now: s.now, t: s.now}
	q := ip.vcs[v].buf
scan:
	for i := 0; i < q.runs.n; i++ {
		r := q.runs.at(i)
		if r.pkt != pkt {
			break
		}
		for m := r.mask; m != 0; m &= m - 1 {
			if (r.tail && m&(m-1) == 0) || !c.depart(r.arrive+int64(trailingZeros(m))) {
				break scan
			}
		}
	}
	if c.mask == 0 {
		return
	}
	l.pushAhead(s, &l.lanes[v], pkt, s.now+int64(s.p.LinkFlightCycles), c.mask)
	op.commitAt, op.commitMask, op.starved = s.now, c.mask, c.starve
	sw.sleepOuts |= 1 << uint(k)
	s.scheduleWake(l.id, c.t+1)
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

// creditScan reads a committing sender's departures on lane v of credit
// link l, from the current cycle now up to cycle limit, one flit at a time
// (depart). Each departure spends a credit: first the held ones, then the
// returns for lane v on l's signal ring, in arrival order. mask has bit i
// for a departure at cycle now+i, starve bit i for a cycle now+i at which a
// flit was ready and had no credit, and t is the last departure.
type creditScan struct {
	l            *link
	v            uint8
	held         int
	j            int // next signal on l's ring to read
	limit, now   int64
	t            int64
	mask, starve uint64
}

// depart adds the departure of the next flit, which can leave from cycle
// ready on, and reports whether it falls within the limit.
//
//sim:hotpath
func (c *creditScan) depart(ready int64) bool {
	lo := max(ready, c.t+1)
	d := lo
	if c.held > 0 {
		c.held--
	} else {
		for {
			if c.j == c.l.signals.n {
				return false
			}
			g := c.l.signals.at(c.j)
			c.j++
			if g.arrive > c.limit {
				return false
			}
			if g.vc == c.v {
				d = max(d, g.arrive)
				break
			}
		}
	}
	if d > c.limit {
		return false
	}
	c.starve |= 1<<uint(d-c.now) - 1<<uint(lo-c.now)
	c.t = d
	c.mask |= 1 << uint(d-c.now)
	return true
}

// settleDrain settles through the previous cycle the committed output, if
// any, that drains the VC input port at the far end of link l, so that l's
// signal ring holds every credit return the per-cycle visits would have
// sent by then. A sender calls it before it commits on l.
func (s *Sim) settleDrain(l *link) {
	if l.recvPort < 0 {
		return
	}
	ip := &s.inPorts[l.recvPort]
	for i := range ip.vcs {
		if c := ip.vcs[i].conn; c >= 0 && s.outPorts[c].commitMask != 0 {
			s.settleOut(&s.outPorts[c], s.now-1)
		}
	}
}

// endForConnect ends, through the previous cycle, the commitments that a
// setup connecting output op from VC input ip would break: op's own, whose
// output gains a second connected lane, and the one draining ip through
// another lane, whose input gains one. The connect's header strip then
// returns its credit behind every return of the ended commitment.
func (s *Sim) endForConnect(op *outPort, ip *inPort) {
	if op.commitMask != 0 {
		s.endCommit(op, s.now-1)
	}
	for i := range ip.vcs {
		if c := ip.vcs[i].conn; c >= 0 && s.outPorts[c].commitMask != 0 {
			s.endCommit(&s.outPorts[c], s.now-1)
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

// settleMoves counts the settled departures m of a commitment made at cycle
// at on link l as the link's busy time and as late moves.
func (s *Sim) settleMoves(l *link, at int64, m uint64) {
	if n := s.lateMove(at, m); s.measuring {
		l.busy += n
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

// settleOut carries out the departures committed output op makes through
// cycle through: it takes their flits from the input lane (on a credit
// link, settleCredits), counts them (settleMoves), and wakes the output
// once the commitment is spent.
//
//sim:hotpath
func (s *Sim) settleOut(op *outPort, through int64) {
	m := dueBy(op.commitAt, op.commitMask, through)
	if op.starved != 0 {
		s.settleStarved(&s.links[op.link], op.commitAt, &op.starved, through)
	}
	if m == 0 {
		return
	}
	op.commitMask &^= m
	n := bits.OnesCount64(m)
	l := &s.links[op.link]
	if l.credits != nil {
		s.settleCredits(op, l, m, n, through)
	} else if last := s.inPorts[op.one[0].conn].one[0].buf.takeN(n); last > through {
		s.commitLost(op, through)
	}
	s.outFlits += int64(n)
	s.settleMoves(l, op.commitAt, m)
	if op.commitMask == 0 {
		s.switches[op.sw].sleepOuts &^= 1 << uint(op.localIdx)
		s.transferSet.add(op.sw)
	}
}

// settleCredits is settleOut's half for an output on credit link l: it
// takes the n flits of departures m from the input lane, spends their
// credits (spend), and returns the input lane's credits upstream, each
// stamped at its departure plus the flight. Every settle comes by the
// output's wake, the cycle after its last departure, so each return still
// lies ahead, and it comes before any other credit push on the upstream
// link (settleDrain, endForConnect), so the upstream signal ring keeps the
// per-cycle loop's order. The committed lane is the output's last sender
// (txRR).
//
//sim:hotpath
func (s *Sim) settleCredits(op *outPort, l *link, m uint64, n int, through int64) {
	v := op.txRR
	ip := &s.inPorts[op.vcs[v].conn]
	if last := ip.vcs[v].buf.takeN(n); last > through {
		s.commitLost(op, through)
	}
	s.spend(l, v, n)
	up := &s.links[ip.link]
	at := op.commitAt + int64(s.p.LinkFlightCycles)
	for ; m != 0; m &= m - 1 {
		up.pushCreditAt(s, v, at+int64(trailingZeros(m)))
	}
}

// spend spends the credits of n settled departures on lane v of credit link
// l. The settle comes at or after the departures, whose credits have
// arrived by then, so a count below zero fails the credit conservation
// check.
//
//sim:hotpath
func (s *Sim) spend(l *link, v, n int) {
	if l.credits[v] -= int16(n); l.credits[v] < 0 {
		l.noCredit(v)
	}
}

// settleStarved counts the cycles in *starved, of a commitment on credit
// link l made at cycle at, that fall at or before cycle through as l's idle
// time (a ready flit waited for its credit then), and clears them. A
// settle takes them whether or not a departure falls due with them, so
// the cycles before the measurement window opens are not counted.
//
//sim:hotpath
func (s *Sim) settleStarved(l *link, at int64, starved *uint64, through int64) {
	sm := dueBy(at, *starved, through)
	*starved &^= sm
	if s.measuring {
		l.idleStopped += int64(bits.OnesCount64(sm))
	}
}

// commitLost fails the check that a committed flit has arrived in its input
// lane by its departure, kept out of line so settleOut holds no allocation
// site.
//
//go:noinline
func (s *Sim) commitLost(op *outPort, through int64) {
	panic(fmt.Sprintf("netsim: output on link %d committed a flit its input lane has not received by cycle %d", op.link, through))
}

// wakeCommit is the arrival wheel's wake for the sender of link lid, due
// the cycle after its last committed departure: it settles the commitment
// of the switch output or the NIC, which wakes it. A wake left behind by a
// revoked commitment finds nothing to settle.
//
//sim:hotpath
func (s *Sim) wakeCommit(lid int) {
	if oi := s.outPortOfLink[lid]; oi >= 0 {
		if op := &s.outPorts[oi]; op.commitMask != 0 {
			s.settleOut(op, s.now-1)
		}
	} else if n := &s.nics[lid-s.numChannels]; n.commitMask != 0 {
		s.settleNIC(n, s.now-1)
	}
}

// commitNIC is commitOut for a NIC streaming an injection on stop & go
// up-link l: nothing but a signal already on l can stop it within one
// flight. It commits the next departures up to now+LinkFlightCycles-1,
// before the tail flit, before the first signal on l and, with room in the
// source queue, before the next message is due. A source injection has the
// whole packet in NIC memory, so its flits follow one per cycle. So do a
// re-injection's while the NIC holds the received flit after each; flit k
// waits for received flit k+1, and the NIC reads the arrivals of those it
// does not hold from its down-link's stamps (departures), where every flit
// that arrives within the commitment already is, because stage 4 runs the
// switch transfers first. The flits go onto l at once, the injection
// counts them sent as they settle (settleNIC), and the NIC sleeps like a
// parked one until the wake after its last departure; work handed to it
// from outside ends the commitment (unparkNIC). nic.tickTransfer calls it
// under the active-set loop with no DMA pending, and for a source
// injection with no source bubbles.
//
//sim:hotpath
func (s *Sim) commitNIC(n *nic, l *link) {
	limit := s.commitLimit(l)
	gen := !n.stopGen && !math.IsInf(s.genIntervalCycles, 1)
	room := n.sendQLen() < s.p.SourceQueueCap
	if gen && room {
		limit = min(limit, int64(math.Ceil(n.nextGen))-1)
	}
	k := n.cur.toSend - 1 - n.cur.sent // flits before the tail
	r := n.cur.reinj
	if r != nil && !r.recvDone {
		k = r.received - 1 - n.cur.sent // flits whose next received flit the NIC holds
	}
	var mask, starve uint64
	var end int64
	if v := n.cur.pkt.vc; l.credits != nil {
		// On a credit up-link each flit also waits for its credit, as a
		// switch output's does (commitCredit); VC routes never re-inject.
		s.settleDrain(l)
		c := creditScan{l: l, v: v, held: int(l.credits[v]), limit: limit, now: s.now, t: s.now}
		for ; k > 0 && c.depart(c.t+1); k-- {
		}
		mask, starve, end = c.mask, c.starve, c.t
	} else {
		k = max(0, min(k, int(limit-s.now)))
		mask, end = (uint64(2)<<uint(k)-1)&^1, s.now+int64(k)
		if r != nil && !r.recvDone {
			mask, end = s.departures(&s.links[s.hostDownLink(n.host)].lanes[0], r.pkt, mask, end, limit)
		}
	}
	if mask == 0 {
		return
	}
	n.commitAt, n.commitMask, n.starved = s.now, mask, starve
	l.pushAhead(s, &l.lanes[n.cur.pkt.vc], n.cur.pkt, s.now+int64(s.p.LinkFlightCycles), mask)
	s.nicSet.remove(n.host)
	s.parkedNICs.add(n.host)
	n.parkedAt = s.now + 1
	n.parkedFull = gen && !room
	s.scheduleWake(l.id, end+1)
}

// settleNIC is settleOut for a committed NIC: the departures through cycle
// through count as sent (and settleMoves counts them), and the NIC wakes
// once the commitment is spent.
//
//sim:hotpath
func (s *Sim) settleNIC(n *nic, through int64) {
	m := dueBy(n.commitAt, n.commitMask, through)
	l := &s.links[n.upLink]
	if n.starved != 0 {
		s.settleStarved(l, n.commitAt, &n.starved, through)
	}
	if m == 0 {
		return
	}
	n.commitMask &^= m
	k := bits.OnesCount64(m)
	n.cur.sent += k
	s.nicFlits += int64(k)
	if l.credits != nil {
		s.spend(l, int(n.cur.pkt.vc), k)
	}
	s.settleMoves(l, n.commitAt, m)
	if n.commitMask == 0 {
		s.wakeSleeper(n, through)
	}
}

// endCommitNIC is endCommit for a committed NIC.
func (s *Sim) endCommitNIC(n *nic, through int64) {
	s.settleNIC(n, through)
	if n.commitMask == 0 {
		return
	}
	s.links[n.upLink].lanes[n.cur.pkt.vc].unpush(bits.OnesCount64(n.commitMask))
	n.commitMask, n.starved = 0, 0
	s.wakeSleeper(n, through)
}

// endCommit settles committed output op through cycle through, revokes the
// departures after it, whose flits are the newest on its link's lane (the
// lane of its last sender), and wakes the output.
func (s *Sim) endCommit(op *outPort, through int64) {
	s.settleOut(op, through)
	if op.commitMask == 0 {
		return
	}
	s.links[op.link].lanes[op.txRR].unpush(bits.OnesCount64(op.commitMask))
	op.commitMask, op.starved = 0, 0
	s.switches[op.sw].sleepOuts &^= 1 << uint(op.localIdx)
	s.transferSet.add(op.sw)
}

// settleCommits settles every committed output and NIC through cycle
// through, leaving the rest of each commitment in place, and hands every
// NIC the flits its down-link has delivered by then (settleReceptions). It
// runs before code that reads what a commitment or a reception defers: the
// opening of the measurement window, metrics sampling and the deadlock
// watchdog.
func (s *Sim) settleCommits(through int64) {
	s.settleReceptions(through)
	for w, word := range s.parkedNICs.words {
		for word != 0 {
			n := &s.nics[w<<6+trailingZeros(word)]
			word &= word - 1
			if n.commitMask != 0 {
				s.settleNIC(n, through)
			}
		}
	}
	for i := range s.switches {
		sw := &s.switches[i]
		for m := sw.sleepOuts; m != 0; m &= m - 1 {
			if op := &s.outPorts[sw.outs[bits.TrailingZeros32(m)]]; op.commitMask != 0 {
				s.settleOut(op, through)
			}
		}
	}
}

// settleParked settles every parked NIC and switch output through cycle
// through and wakes it, ends every commitment there (endCommit,
// endCommitNIC), and hands every NIC the flits its down-link has delivered
// by then (settleReceptions). It runs before any cycle-edge code that
// could change what a sleeping component waits on or read what it counts
// or receives: plan events, the end-of-cycle kill and purge (through the
// current cycle, whose visits were skipped too), the stall dump, Snapshot,
// whose walk then finds no arrived flit on a NIC's cable, and finalize.
func (s *Sim) settleParked(through int64) {
	s.settleReceptions(through)
	for w, word := range s.parkedNICs.words {
		for word != 0 {
			h := w<<6 + trailingZeros(word)
			word &= word - 1
			s.unparkNIC(&s.nics[h], through)
		}
	}
	for i := range s.switches {
		sw := &s.switches[i]
		if sw.sleepOuts == 0 {
			continue
		}
		for m := sw.sleepOuts; m != 0; m &= m - 1 {
			k := bits.TrailingZeros32(m)
			if op := &s.outPorts[sw.outs[k]]; op.commitMask != 0 {
				s.endCommit(op, through)
			} else {
				s.unparkOut(sw, k, through)
			}
		}
		s.transferSet.add(i)
	}
}

// settleReceptions hands every NIC under stop & go the flits its
// down-link has delivered by cycle through (nic.settleRx).
func (s *Sim) settleReceptions(through int64) {
	if s.vcMode {
		return
	}
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
		!(s.fe != nil && s.fe.down[n.upLink]) {
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
					s.wakeCommit(i)
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
		if h := int(s.parkTimers.pop().key); s.parkedNICs.has(h) {
			s.unparkNIC(&s.nics[h], s.now-1)
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
