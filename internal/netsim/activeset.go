package netsim

import (
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
//   - the arrival wheel: a ring of ringSize(LinkFlightCycles+1) slots, one
//     per cycle of a flight and one more, each a pair of link bitsets. A
//     link sits on the slot of every cycle at which something that acts
//     arrives on it: every signal or credit (pushSignal, pushCredit, in the
//     signal set) and every flit whose arrival could have an effect
//     (pushFlit by link.acts, in the flit set: a flit bound for a NIC, a
//     packet's first flit at a switch input or lane, a flit pushed while
//     the lane holds more than the stop threshold or the VC buffer depth).
//     Stage 1 walks the current cycle's slot, delivering the signals and
//     the flits it names, and empties it.
//     Every other flit only joins a switch input's buffer, which reads its
//     occupancy and head packet from the arrival stamps (see cable.go), so
//     no visit is owed; the dense loop runs the same arrival handler on it,
//     which does nothing. Unlike the sets below, nothing is ever removed
//     from a slot before its cycle: a signal dropped by a failing cable
//     leaves a spurious visit behind.
//   - routingSet: a switch is active while any input has an ungranted
//     routing request or any output is mid-setup (reqOuts or setupOuts
//     non-zero). Added by inPort.requestRouting (the only request site),
//     removed after tickRouting once both masks are zero.
//   - transferSet: a switch is active while any output is connected and
//     not parked (connOuts &^ parkedOuts non-zero). Added when tickRouting
//     completes a setup and when a parked output wakes, removed after
//     tickTransfer once no such output remains.
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
// switch's parkedOuts mask, which the transfer walk skips.
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
// parks; VC mode (credits, not stop & go) never parks.
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
// then, and the links a flit that acts reaches then.
type wheelSlot struct {
	signals, flits bitset
}

// scheduleSignal puts link lid on the arrival wheel for a signal arriving
// at cycle at, which lies within one flight of now.
//
//sim:hotpath
func (s *Sim) scheduleSignal(lid int, at int64) { s.wheel[at&s.wheelMask].signals.add(lid) }

// scheduleFlit puts link lid on the arrival wheel for a flit that acts,
// arriving at cycle at, which lies within one flight of now.
//
//sim:hotpath
func (s *Sim) scheduleFlit(lid int, at int64) { s.wheel[at&s.wheelMask].flits.add(lid) }

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
// would have counted as stop & go idle time on its up-link; with a full
// queue, each one from its generation time on is also a backpressure stall.
func (s *Sim) unparkNIC(n *nic, through int64) {
	s.parkedNICs.remove(n.host)
	s.nicSet.add(n.host)
	s.links[n.upLink].idleStopped += s.measuredCycles(n.parkedAt, through)
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
	sw.parkedOuts |= 1 << uint(k)
	s.outPorts[sw.outs[k]].parkedAt = s.now + 1
}

// unparkOut settles parked output k of sw through cycle through: each
// skipped measured cycle is stop & go idle time on its link. The caller
// puts the switch back in the transfer set.
func (s *Sim) unparkOut(sw *swtch, k int, through int64) {
	sw.parkedOuts &^= 1 << uint(k)
	op := &s.outPorts[sw.outs[k]]
	s.links[op.link].idleStopped += s.measuredCycles(op.parkedAt, through)
}

// wakeSender wakes the component parked on link lid, whose go signal has
// just arrived: the switch output that drives it, or the NIC of a host
// up-link.
func (s *Sim) wakeSender(lid int) {
	if oi := s.outPortOfLink[lid]; oi >= 0 {
		op := &s.outPorts[oi]
		sw := &s.switches[op.sw]
		if sw.parkedOuts&(1<<uint(op.localIdx)) != 0 {
			s.unparkOut(sw, op.localIdx, s.now-1)
			s.transferSet.add(op.sw)
		}
	} else if h := lid - s.numChannels; s.parkedNICs.has(h) {
		s.unparkNIC(&s.nics[h], s.now-1)
	}
}

// settleParked settles every parked NIC and switch output through cycle
// through and wakes it. It runs before any cycle-edge code that could change
// what a parked component waits on or read what it counts: plan events, the
// end-of-cycle kill and purge (through the current cycle, whose visits were
// skipped too), Snapshot and finalize.
func (s *Sim) settleParked(through int64) {
	for w, word := range s.parkedNICs.words {
		for word != 0 {
			h := w<<6 + trailingZeros(word)
			word &= word - 1
			s.unparkNIC(&s.nics[h], through)
		}
	}
	for i := range s.switches {
		sw := &s.switches[i]
		if sw.parkedOuts == 0 {
			continue
		}
		for m := sw.parkedOuts; m != 0; m &= m - 1 {
			s.unparkOut(sw, bits.TrailingZeros32(m), through)
		}
		s.transferSet.add(i)
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
	// 1. Links on this cycle's wheel slot deliver their signals, then the
	// flit that acts; pushes during the walk land on later slots.
	s.seen = s.now
	slot := &s.wheel[s.now&s.wheelMask]
	for w, sg := range slot.signals.words {
		fl := slot.flits.words[w]
		if sg|fl == 0 {
			continue
		}
		slot.signals.words[w], slot.flits.words[w] = 0, 0
		for word := sg | fl; word != 0; word &= word - 1 {
			i := w<<6 + trailingZeros(word)
			bit := uint64(1) << uint(i&63)
			l := &s.links[i]
			if sg&bit != 0 {
				l.deliverSignals(s)
			}
			if fl&bit != 0 {
				l.deliverFlits(s)
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
			if sw.connOuts&^sw.parkedOuts == 0 {
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
