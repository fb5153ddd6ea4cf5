package netsim

import (
	"math"
	"math/bits"
)

// flitRun is a run of flits of one packet on a cable lane: bit i of mask
// stands for a flit that arrives at cycle arrive+i, and bit 0, the first
// remaining flit, is always set. Wormhole switching keeps a packet's flits
// together on a lane; gaps in their arrivals (a source bubble, a stopped
// sender, lanes taking turns on a link) stay inside one run, and a packet
// whose flits span more than runWindow cycles takes several runs.
type flitRun struct {
	pkt    *packet
	arrive int64  // arrival cycle of the first remaining flit
	mask   uint64 // arrival slots from arrive on; 0 only in a head placeholder
	tail   bool   // the run ends with the packet's tail flit
	// open marks the head run of a packet that already holds the buffer
	// head: one of its flits has left, so the packet stays the head while
	// its next flits are still in flight.
	open bool
	// stale marks the rest of a packet that was dead at a purge: its flits
	// were still in flight then, and they vanish on arrival.
	stale bool
}

// runWindow is the span of arrival cycles one run covers.
const runWindow = 64

// count is the number of flits left in the run.
func (r *flitRun) count() int { return bits.OnesCount64(r.mask) }

// last is the arrival cycle of the run's last flit; the run must hold one.
func (r *flitRun) last() int64 { return r.arrive + int64(63-bits.LeadingZeros64(r.mask)) }

// arrived counts the run's remaining flits that have arrived by cycle
// seen.
func (r *flitRun) arrived(seen int64) int {
	d := seen - r.arrive
	if d < 0 {
		return 0
	}
	if d >= runWindow-1 {
		return r.count()
	}
	return bits.OnesCount64(r.mask & (2<<uint(d) - 1))
}

// inFlight reports whether a flit of the run arrives after cycle seen.
func (r *flitRun) inFlight(seen int64) bool { return r.mask != 0 && r.last() > seen }

// buffered reports whether a run that is not stale is in the receiver's
// buffer at cycle seen: a flit of it has arrived, or it is open.
func (r *flitRun) buffered(seen int64) bool { return r.open || r.arrive <= seen }

// ready reports whether the run's first remaining flit has arrived by
// cycle seen.
func (r *flitRun) ready(seen int64) bool { return r.mask != 0 && r.arrive <= seen }

// dropFirst removes the run's first remaining flit and reports whether
// the run is empty then; otherwise arrive moves to the next flit.
func (r *flitRun) dropFirst() (empty bool) {
	r.mask &^= 1
	if r.mask == 0 {
		return true
	}
	shift := bits.TrailingZeros64(r.mask)
	r.arrive += int64(shift)
	r.mask >>= uint(shift)
	return false
}

// runQueue is one lane of a cable together with its receiver's buffer: the
// flits in flight and the flits that have arrived but not left, as a queue
// of runs in arrival order. A flit has arrived once its arrival cycle is at
// most Sim.seen, so nothing moves a flit from cable to buffer: occupancy
// and the head packet follow from the arrival stamps.
//
// Flits of a packet killed by a fault stay in flight until they arrive, as
// on a real cable, and vanish then: the purge after the kill drops the
// buffered flits and marks the rest stale, and a stale run never counts
// towards occupancy or the head.
type runQueue struct {
	runs ring[flitRun]
	n    int // flits in the queue: in flight or buffered, dead ones included
	// store is the ring's first storage, next to the queue's header so
	// that reaching a lane's runs costs no further cache line; a lane that
	// needs more runs grows its ring onto the heap.
	store [laneRuns]flitRun
}

// laneRuns is the number of runs a lane holds before its ring grows.
const laneRuns = 2

// push appends one flit of pkt arriving at cycle at, later than every flit
// on the lane, adding it to the last run when that run is the packet's and
// its window reaches the cycle. It reports whether the flit is its
// packet's first on the lane.
//
//sim:hotpath
func (q *runQueue) push(pkt *packet, tail bool, at int64) (first bool) {
	if q.runs.n > 0 {
		if last := q.runs.at(q.runs.n - 1); last.pkt == pkt && at-last.arrive < runWindow && last.mask != 0 && !last.tail {
			q.n++
			last.mask |= 1 << uint(at-last.arrive)
			last.tail = tail
			return false
		}
	}
	return q.pushRun(pkt, tail, at)
}

// pushRun is push for a flit the last run cannot take: it fills the head
// placeholder or starts a run.
func (q *runQueue) pushRun(pkt *packet, tail bool, at int64) (first bool) {
	q.n++
	if q.runs.n > 0 {
		if last := q.runs.at(q.runs.n - 1); last.pkt == pkt && !last.tail {
			if last.mask == 0 {
				last.arrive, last.mask, last.tail = at, 1, tail
				return false
			}
			q.runs.push(flitRun{pkt: pkt, arrive: at, mask: 1, tail: tail})
			return false
		}
	}
	q.runs.push(flitRun{pkt: pkt, arrive: at, mask: 1, tail: tail})
	return true
}

// pushAhead appends flits of pkt, none of them its tail, one arriving at
// cycle at+i for each bit i of mask, as that many pushes would: the lane's
// last run is pkt's and every flit on the lane arrives before them. They
// join the last run in one step when its window reaches them.
//
//sim:hotpath
func (q *runQueue) pushAhead(pkt *packet, at int64, mask uint64) {
	last := q.runs.at(q.runs.n - 1)
	if top := at + int64(63-bits.LeadingZeros64(mask)); last.pkt == pkt && !last.tail && last.mask != 0 && top-last.arrive < runWindow {
		q.n += bits.OnesCount64(mask)
		last.mask |= mask << uint(at-last.arrive)
		return
	}
	for m := mask; m != 0; m &= m - 1 {
		q.push(pkt, false, at+int64(bits.TrailingZeros64(m)))
	}
}

// head returns the run of the buffer's head packet at cycle seen, or nil
// when the buffer has no head: the first run that is not stale, once its
// first flit has arrived or while it is open.
//
//sim:hotpath
func (q *runQueue) head(seen int64) *flitRun {
	if q.runs.n == 0 {
		return nil
	}
	r := q.runs.front()
	if r.stale {
		return q.headPastStale(seen)
	}
	if r.open || r.arrive <= seen {
		return r
	}
	return nil
}

// headPastStale is head behind stale runs in front: those that have fully
// arrived are dropped.
func (q *runQueue) headPastStale(seen int64) *flitRun {
	for q.runs.n > 0 {
		r := q.runs.front()
		if !r.stale {
			if r.buffered(seen) {
				return r
			}
			return nil
		}
		if r.inFlight(seen) {
			return nil // the stale run is still arriving
		}
		q.n -= r.count()
		q.runs.pop()
	}
	return nil
}

// take removes the first flit of the head run, which must have arrived,
// and reports whether it was the packet's tail. A drained run that is not
// the tail hands the head to the packet's next run, or stays as an empty
// open placeholder until the next flit is pushed.
//
//sim:hotpath
func (q *runQueue) take() (tail bool) {
	r := q.runs.front()
	r.open = true
	q.n--
	if !r.dropFirst() {
		return false
	}
	return q.drained()
}

// takeN removes the first n flits of the head packet, as n calls of take
// would, and returns the arrival cycle of the last one. The flits must
// have arrived and must not include the packet's tail; a run that holds
// none of them (a bug) reads as arriving at the end of time.
//
//sim:hotpath
func (q *runQueue) takeN(n int) (last int64) {
	q.n -= n
	for {
		r := q.runs.front()
		r.open = true
		c := r.count()
		if c == 0 {
			return math.MaxInt64
		}
		if c > n {
			m := r.mask
			for ; n > 1; n-- {
				m &= m - 1
			}
			last = r.arrive + int64(bits.TrailingZeros64(m))
			m &= m - 1
			shift := bits.TrailingZeros64(m)
			r.arrive += int64(shift)
			r.mask = m >> uint(shift)
			return last
		}
		last = r.last()
		r.mask = 0
		q.drained()
		if n -= c; n == 0 {
			return last
		}
	}
}

// drained retires the head run take has just emptied.
func (q *runQueue) drained() (tail bool) {
	r := q.runs.front()
	if r.tail {
		q.runs.pop()
		return true
	}
	if q.runs.n > 1 && q.runs.at(1).pkt == r.pkt {
		q.runs.pop()
		q.runs.front().open = true
	}
	return false
}

// occ is the buffer occupancy at cycle seen: live flits that have arrived
// and not left.
func (q *runQueue) occ(seen int64) int {
	occ := 0
	for i := 0; i < q.runs.n; i++ {
		r := q.runs.at(i)
		if r.arrive > seen {
			break
		}
		if !r.stale {
			occ += r.arrived(seen)
		}
	}
	return occ
}

// arrival returns the run holding the flit that arrives at cycle now, or
// nil when none does. The flit is near the back: only the last flight
// window of flits is still in flight.
//
//sim:hotpath
func (q *runQueue) arrival(now int64) *flitRun {
	for i := q.runs.n - 1; i >= 0; i-- {
		r := q.runs.at(i)
		if r.arrive <= now {
			if d := now - r.arrive; d < runWindow && r.mask>>uint(d)&1 != 0 {
				return r
			}
			return nil
		}
	}
	return nil
}

// inFlight reports whether a flit arrives at cycle now or later.
func (q *runQueue) inFlight(now int64) bool {
	return q.runs.n > 0 && q.runs.at(q.runs.n-1).inFlight(now-1)
}

// popFlit removes the first flit of the front run, which arrives at the
// current cycle, for a receiver without a buffer (a NIC), and reports
// whether it was the packet's tail.
//
//sim:hotpath
func (q *runQueue) popFlit() (tail bool) {
	r := q.runs.front()
	q.n--
	if !r.dropFirst() {
		return false
	}
	tail = r.tail
	q.runs.pop()
	return tail
}

// deadBuffered reports whether the buffer holds a run of a dead packet at
// cycle seen, stale runs aside.
func (q *runQueue) deadBuffered(seen int64) bool {
	for i := 0; i < q.runs.n; i++ {
		r := q.runs.at(i)
		if r.stale {
			continue
		}
		if !r.buffered(seen) {
			return false
		}
		if r.pkt.dead {
			return true
		}
	}
	return false
}

// purgeDead drops every flit of a dead packet that has arrived by cycle
// seen, placeholders included, and marks the dead flits still in flight
// stale. Only the fault machinery calls it.
func (q *runQueue) purgeDead(seen int64) {
	kept := 0
	for i := 0; i < q.runs.n; i++ {
		r := *q.runs.at(i)
		if r.pkt.dead {
			for r.mask != 0 && r.arrive <= seen {
				q.n--
				r.dropFirst()
			}
			if r.mask == 0 {
				continue
			}
			r.open, r.stale = false, true
		}
		*q.runs.at(kept) = r
		kept++
	}
	for i := kept; i < q.runs.n; i++ {
		*q.runs.at(i) = flitRun{}
	}
	q.runs.n = kept
}

// unpush removes the n newest flits of the lane, a revoked commitment's
// (see Sim.endCommit), which are all still in flight. A run they empty is
// dropped, unless it is open: the packet then keeps the buffer head as an
// empty placeholder.
func (q *runQueue) unpush(n int) {
	q.n -= n
	for n > 0 {
		r := q.runs.at(q.runs.n - 1)
		c := r.count()
		if c > n {
			for ; n > 0; n-- {
				r.mask &^= 1 << uint(63-bits.LeadingZeros64(r.mask))
			}
			return
		}
		n -= c
		if r.open {
			r.mask = 0
			return
		}
		*r = flitRun{}
		q.runs.n--
	}
}

// dropInFlight discards every flit still in flight at cycle seen: a failed
// cable loses what it carries, whose packets the caller has killed.
func (q *runQueue) dropInFlight(seen int64) {
	for q.runs.n > 0 {
		r := q.runs.at(q.runs.n - 1)
		if !r.inFlight(seen) {
			return
		}
		if r.arrive > seen {
			q.n -= r.count()
			*r = flitRun{}
			q.runs.n--
			continue
		}
		kept := r.mask & (2<<uint(seen-r.arrive) - 1)
		q.n -= bits.OnesCount64(r.mask &^ kept)
		r.mask = kept
		r.tail = false
		return
	}
}
